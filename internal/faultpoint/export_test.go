package faultpoint

// Fire is fire, exported to the package's external tests: one hit of kind k.
func (l *Listener) Fire(k Kind) (Policy, bool) { return l.fire(k) }

// CutLen is cutLen, exported to the package's external tests.
var CutLen = cutLen
