package groups_test

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/ehr"
	"repro/internal/groups"
)

// Example is collaborative-group discovery (§4) on its own: build the
// user-similarity graph W = AᵀA from the access log, cluster it by
// modularity maximization, refine the clusters recursively into a hierarchy,
// and print the department-code composition of the largest groups — the
// analysis behind the paper's Figures 10 and 11. A care team mixes
// "...(Physicians)" and "Nursing-..." codes, which is why clustering beats
// department codes as a collaboration signal.
func Example() {
	ds := ehr.Generate(ehr.Tiny())
	graph := groups.BuildUserGraph(ds.Log())
	fmt.Printf("user-similarity graph: %d users\n", graph.NumUsers())

	hier := groups.BuildHierarchy(graph, 8)
	fmt.Printf("hierarchy depth: %d\n", hier.MaxDepth())
	for d := 0; d <= hier.MaxDepth(); d++ {
		fmt.Printf("  depth %d: %d groups\n", d, hier.NumGroupsAt(d))
	}

	// The composition of the two largest depth-1 groups.
	type group struct {
		id, size int
		depts    map[string]int
	}
	var all []group
	for id, members := range hier.GroupsAt(1) {
		g := group{id: id, size: len(members), depts: map[string]int{}}
		for _, u := range members {
			if user := ds.UserByAudit(u.AsInt()); user != nil {
				g.depts[user.DeptCode]++
			}
		}
		all = append(all, g)
	}
	slices.SortFunc(all, func(a, b group) int {
		return cmp.Or(cmp.Compare(b.size, a.size), cmp.Compare(a.id, b.id))
	})
	for _, g := range all[:min(2, len(all))] {
		fmt.Printf("group %d — %d members\n", g.id, g.size)
		codes := make([]string, 0, len(g.depts))
		for c := range g.depts {
			codes = append(codes, c)
		}
		slices.SortFunc(codes, func(a, b string) int {
			return cmp.Or(cmp.Compare(g.depts[b], g.depts[a]), cmp.Compare(a, b))
		})
		for _, c := range codes {
			fmt.Printf("  %-45s %d\n", c, g.depts[c])
		}
	}
	// Output:
	// user-similarity graph: 41 users
	// hierarchy depth: 2
	//   depth 0: 1 groups
	//   depth 1: 5 groups
	//   depth 2: 11 groups
	// group 2 — 11 members
	//   Nursing-Psychiatry                            4
	//   UMHS Psychiatry (Physicians)                  2
	//   Anesthesiology                                1
	//   Medical Students                              1
	//   Pathology                                     1
	//   Pharmacy                                      1
	//   UMHS Radiology (Physicians)                   1
	// group 3 — 11 members
	//   Nursing-Internal Medicine                     4
	//   Medical Students                              2
	//   UMHS Internal Medicine (Physicians)           2
	//   Paging & Information Services                 1
	//   Pharmacy                                      1
	//   UMHS Radiology (Physicians)                   1
}
