// Package mp is a minimal stand-in for pace/internal/mp: just enough
// surface for the Comm-based analyzers, which match the endpoint by method
// name + receiver type Comm + package name "mp" (not import path) precisely
// so fixtures like this one work.
package mp

import "time"

// Comm mirrors the real endpoint's messaging surface.
type Comm struct{}

func (c *Comm) Send(to, tag int, data []byte) error     { return nil }
func (c *Comm) Recv(from, tag int) ([]byte, int, error) { return nil, 0, nil }
func (c *Comm) RecvTimeout(from, tag int, d time.Duration) ([]byte, int, error) {
	return nil, 0, nil
}
func (c *Comm) Probe(from, tag int) (bool, error) { return false, nil }
