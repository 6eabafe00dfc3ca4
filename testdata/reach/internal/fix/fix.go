// Package fix is TestReachableFieldClasses's fixture: one field per kind of
// access, of which only ReadNeverSet and SetNeverRead are dead.
package fix

// Fields has one field per case.
type Fields struct {
	ReadNeverSet int
	SetNeverRead int
	Addressed    int        // &x.f reads and sets
	OpAssigned   int        // op= reads and sets
	JSON         int        `json:"json"` // encoding/json reads and fills
	Buckets      [4]counter // a pointer method on an element reads and sets
	Pair         pair       // set by assignment; its fields by an unkeyed literal
	Keyed        int        // set by a composite-literal key
	Counted      int        // set by ++
	Inner        inner      // set when a field of it is set
}

type counter struct{ n int }

func (c *counter) Add(d int) { c.n += d }

type pair struct{ a, b int }

type inner struct{ v int }

// Use touches every field the way its comment says.
func Use() int {
	f := Fields{Keyed: 1}
	f.SetNeverRead = 1
	p := &f.Addressed
	*p = 2
	f.OpAssigned += 3
	f.Buckets[1].Add(4)
	f.Pair = pair{5, 6}
	f.Counted++
	f.Inner.v = 8
	return f.ReadNeverSet + *p + f.Pair.a + f.Pair.b + f.JSON + f.Keyed + f.Counted + f.Inner.v
}
