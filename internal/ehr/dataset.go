package ehr

import (
	"fmt"

	"repro/internal/relation"
)

// Role classifies a hospital user.
type Role uint8

// User roles in the synthetic hospital.
const (
	RoleDoctor Role = iota
	RoleNurse
	RoleMedStudent
	RoleRadiologist
	RoleLabTech
	RolePharmacist
	RoleFloater
	RoleRecords
)

func (r Role) String() string {
	switch r {
	case RoleDoctor:
		return "doctor"
	case RoleNurse:
		return "nurse"
	case RoleMedStudent:
		return "med-student"
	case RoleRadiologist:
		return "radiologist"
	case RoleLabTech:
		return "lab-tech"
	case RolePharmacist:
		return "pharmacist"
	case RoleFloater:
		return "floater"
	case RoleRecords:
		return "records"
	}
	return fmt.Sprintf("Role(%d)", r)
}

// User is the generator-side record of one hospital employee.
type User struct {
	Index       int    // position in Dataset.Users
	AuditID     int64  // identifier used by the log and data set B
	CaregiverID int64  // identifier used by data set A
	Name        string // for natural-language rendering
	Role        Role
	DeptCode    string
	Team        int // index into Dataset.Teams, or -1 for floating staff
}

// Team is a ground-truth collaborative group: the users who care for the
// same patients and therefore access the same records.
type Team struct {
	Index   int
	Dept    string // clinical department or service name
	Members []int  // user indices
}

// Patient is the generator-side record of one patient.
type Patient struct {
	Index    int
	ID       int64
	Name     string
	VIP      bool
	HomeTeam int // clinical team that usually treats this patient
}

// Cause is the ground-truth reason behind one generated log access. Causes
// are visible to analysis and metric code only; the explanation pipeline
// never reads them.
type Cause uint8

// Ground-truth causes.
const (
	// CauseNone marks an access with no recorded reason (the paper's
	// "incomplete data set" residue).
	CauseNone Cause = iota
	// CauseSnoop marks inappropriate access to a VIP record.
	CauseSnoop
	// CauseTreatingDoctor marks the treating clinician opening the chart
	// around an appointment, visit, or document (explainable at length 2
	// from data set A).
	CauseTreatingDoctor
	// CauseTeam marks a team member (nurse or student) opening the chart of
	// a teammate's patient (explainable only via collaborative groups).
	CauseTeam
	// CauseFulfiller marks a consultation-service user acting on an order
	// (explainable at length 2 from data set B).
	CauseFulfiller
	// CauseRepeat marks a re-access by a (user, patient) pair that accessed
	// before.
	CauseRepeat
	// CauseFloater marks a floating-service access (IV nurse etc.) with no
	// recorded order — unexplainable by design, matching §5.3.4.
	CauseFloater
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseSnoop:
		return "snoop"
	case CauseTreatingDoctor:
		return "treating-doctor"
	case CauseTeam:
		return "team"
	case CauseFulfiller:
		return "fulfiller"
	case CauseRepeat:
		return "repeat"
	case CauseFloater:
		return "floater"
	}
	return fmt.Sprintf("Cause(%d)", c)
}

// Dataset is the generated hospital: the relational database handed to the
// auditing pipeline plus the ground truth kept beside it.
type Dataset struct {
	Config Config
	DB     *relation.Database

	Users    []User
	Teams    []Team
	Patients []Patient

	// Causes has one entry per Log row, aligned with row order (Lid order).
	Causes []Cause

	userByAudit     map[int64]*User
	userByCaregiver map[int64]*User
	patientByID     map[int64]*Patient
}

// UserByAudit returns the user with the given audit id, or nil.
func (d *Dataset) UserByAudit(id int64) *User { return d.userByAudit[id] }

// Log returns the access-log table.
func (d *Dataset) Log() *relation.Table { return d.DB.MustTable("Log") }

// PatientName implements the explain.Namer interface: it resolves a patient
// id value to a display name.
func (d *Dataset) PatientName(v relation.Value) string {
	if p := d.patientByID[v.AsInt()]; p != nil {
		return p.Name
	}
	return "patient " + v.String()
}

// UserName implements the explain.Namer interface for audit-id values.
func (d *Dataset) UserName(v relation.Value) string {
	if u := d.userByAudit[v.AsInt()]; u != nil {
		return u.Name
	}
	return "user " + v.String()
}

// CaregiverName implements the explain.Namer interface for caregiver-id
// values.
func (d *Dataset) CaregiverName(v relation.Value) string {
	if u := d.userByCaregiver[v.AsInt()]; u != nil {
		return u.Name
	}
	return "caregiver " + v.String()
}
