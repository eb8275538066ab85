package pathmodel

// SQL renders the undecorated path's support query.
func (p Path) SQL() string { return p.sql(nil, nil) }
