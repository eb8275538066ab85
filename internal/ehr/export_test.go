package ehr

// UserByCaregiver returns the user with the given caregiver id, or nil.
func (d *Dataset) UserByCaregiver(id int64) *User { return d.userByCaregiver[id] }

// PatientByID returns the patient with the given id, or nil.
func (d *Dataset) PatientByID(id int64) *Patient { return d.patientByID[id] }
