package shard

// Policy names the client's failure policy for the package's external tests,
// and DefaultPolicy is the one every program runs.
type Policy = policy

var DefaultPolicy = defaultPolicy

// WithPolicy returns cfg with its failure policy replaced by p: the one way
// a test runs a fast or exact retry and breaker schedule.
func WithPolicy(cfg Config, p Policy) Config {
	cfg.policy = &p
	return cfg
}
