package faultpoint

// Site is kept only for bench/ until ROADMAP item 2: the benchmark module
// still times a fault-site check, and no production path holds one any more,
// so the check is an empty call.
type Site struct{}

// New returns a Site; the name is ignored.
func New(string) *Site { return &Site{} }

// Inject never fails.
func (*Site) Inject() error { return nil }
