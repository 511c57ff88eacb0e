// Fixtures for the tagconst analyzer: tags handed to the mp endpoint must
// be named tag* constants, and tag values must be unique per package.
package tagconst

import "fixture/mp"

const (
	tagWork   = 1
	tagReport = 2
	TagPhase  = 3
	tagDup    = 1 // want "collides with tagWork"
)

// Not a tag constant; its value may coincide with a tag freely.
const bufCap = 1

func conforming(c *mp.Comm) {
	_ = c.Send(1, tagWork, nil)
	_ = c.Send(1, tagReport, nil)
	_, _, _ = c.Recv(0, TagPhase)
	_, _ = c.Probe(0, tagWork)
}

// Conforming: a tag threaded through a tag* parameter — the constant
// obligation falls on the outermost caller.
func threaded(c *mp.Comm, tag int) {
	_, _, _ = c.Recv(0, tag)
}

func violations(c *mp.Comm) {
	_ = c.Send(1, 7, nil) // want "must be a named tag"
	k := 9
	_ = c.Send(1, k, nil)             // want "must be a named tag"
	_ = c.Send(1, tagWork+1, nil)     // want "must be a named tag"
	_, _, _ = c.Recv(0, bufCap)       // want "must be a named tag"
	_, _ = c.Probe(0, int(tagReport)) // want "must be a named tag"
}

func allowed(c *mp.Comm) {
	//pacelint:allow tagconst protocol probe uses a raw tag on purpose here
	_ = c.Send(1, 42, nil)
}
