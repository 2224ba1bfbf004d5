package registry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ensembler/internal/comm"
	"ensembler/internal/ensemble"
	"ensembler/internal/nn"
)

// Epoch is one immutable published version of a model held live in memory.
// Immutability is the whole concurrency story: nothing ever mutates an
// epoch's pipeline after Publish, so any number of serving workers may read
// its bodies while a new epoch is being prepared, and in-flight requests
// simply finish on whichever epoch they resolved. A selector rotation's epoch
// shares its parent's server bodies (and its Seq).
type Epoch struct {
	name     string
	version  int
	seq      uint64
	pipeline *ensemble.Ensembler
	leakage  *Leakage
}

// Name returns the model name this epoch belongs to.
func (ep *Epoch) Name() string { return ep.name }

// Version returns the store-assigned (or in-memory sequential) version.
func (ep *Epoch) Version() int { return ep.version }

// Seq returns the epoch's server-body generation. Publish, LoadStore and a
// lazy store load each mint a new one; a selector rotation keeps its
// parent's, because it changes only the client-side secret and shares the
// parent's bodies. A server keys its compiled bodies on it: a changed Seq
// tells the server to compile the new bodies once, and an unchanged one lets
// every worker keep them across a rotation.
func (ep *Epoch) Seq() uint64 { return ep.seq }

// Leakage returns the leakage score recorded in the version's manifest, or
// nil when none was recorded: an in-memory publish or rotation, or a store
// version published without one. Treat it as read-only.
func (ep *Epoch) Leakage() *Leakage { return ep.leakage }

// Pipeline returns the published pipeline. Treat it as read-only.
func (ep *Epoch) Pipeline() *ensemble.Ensembler { return ep.pipeline }

// Bodies returns the epoch's own server bodies — the comm.ServedModel
// contract: a server compiles them once and only reads them, so every worker
// and every shard serves the one copy the registry holds. Callers that run
// the caching Forward over them (an attack replay) take CloneBodies of the
// pipeline instead.
func (ep *Epoch) Bodies() []*nn.Network { return ep.pipeline.Bodies() }

// maxRetainedEpochs bounds how many epochs of one model stay in memory.
// Under a publishing or rotation cadence versions accumulate indefinitely;
// without a bound a long-lived process would hold every superseded pipeline
// forever and eventually OOM. Evicted versions remain resolvable for pinned
// clients through the store (lazily re-loaded); on a storeless registry they
// become unknown-version errors, which is the honest answer.
const maxRetainedEpochs = 8

// modelState is the live state of one model name: the current epoch behind
// an atomic pointer (the serving hot path reads only this), the retained
// map of published versions for pinned resolution, and the rotation count.
type modelState struct {
	current  atomic.Pointer[Epoch]
	mu       sync.Mutex
	epochs   map[int]*Epoch
	rotCount atomic.Uint64
}

// retain inserts an epoch and evicts the oldest retained versions (never the
// current one) beyond maxRetainedEpochs. Caller holds ms.mu.
func (ms *modelState) retain(ep *Epoch) {
	ms.epochs[ep.version] = ep
	for len(ms.epochs) > maxRetainedEpochs {
		cur := ms.current.Load()
		oldest := -1
		for v := range ms.epochs {
			if cur != nil && v == cur.version {
				continue
			}
			if oldest < 0 || v < oldest {
				oldest = v
			}
		}
		if oldest < 0 {
			return
		}
		delete(ms.epochs, oldest)
	}
}

// Registry is the in-memory view the serving stack reads through. It
// implements comm.ModelProvider: the server resolves (model, version) per
// request, with "" meaning the default model and version 0 meaning current.
// Publish and RotateSelector swap the current epoch with a single atomic
// pointer store — no lock is ever taken on the request path for the current
// version.
type Registry struct {
	store *Store // optional write-through persistence; may be nil

	seq     atomic.Uint64
	mu      sync.Mutex // serializes publishes and default changes
	models  sync.Map   // model name → *modelState
	defName atomic.Pointer[string]
}

// Compile-time check: the serving stack reads through a Registry.
var _ comm.ModelProvider = (*Registry)(nil)

// New creates a registry. A non-nil store makes every Publish (and
// RotateSelector) write through to disk; a nil store keeps everything
// in-memory, which tests and single-file deployments use.
func New(store *Store) *Registry {
	return &Registry{store: store}
}

// OpenDir opens the store at dir, loads the latest version of every model it
// holds into a fresh registry, and returns both. The first model (sorted by
// name) becomes the default unless SetDefault changes it.
func OpenDir(dir string) (*Registry, error) {
	store, err := Open(dir)
	if err != nil {
		return nil, err
	}
	r := New(store)
	if _, err := r.LoadStore(); err != nil {
		return nil, err
	}
	return r, nil
}

// state returns (creating if needed) the live state for one model name.
func (r *Registry) state(name string) *modelState {
	if ms, ok := r.models.Load(name); ok {
		return ms.(*modelState)
	}
	ms, _ := r.models.LoadOrStore(name, &modelState{epochs: map[int]*Epoch{}})
	return ms.(*modelState)
}

// install registers a pipeline as the given version and makes it current if
// it is newer than what is live. seq is the body generation of e: 0 mints a
// new one. leak is the version's recorded score (nil: none). It does not
// touch the store.
func (r *Registry) install(name string, version int, e *ensemble.Ensembler, seq uint64, leak *Leakage) *Epoch {
	if seq == 0 {
		seq = r.seq.Add(1)
	}
	ep := &Epoch{name: name, version: version, seq: seq, pipeline: e, leakage: leak}
	ms := r.state(name)
	ms.mu.Lock()
	if cur := ms.current.Load(); cur == nil || cur.version <= version {
		ms.current.Store(ep)
	}
	ms.retain(ep)
	ms.mu.Unlock()
	r.defName.CompareAndSwap(nil, &name)
	return ep
}

// Publish makes the pipeline the next version of the named model: persisted
// to the store (when one is attached), installed in memory, and swapped in
// as the current epoch. Serving continues across the swap — workers finish
// in-flight requests on the old epoch, and the first request against this
// model compiles the new bodies once for every worker.
func (r *Registry) Publish(name string, e *ensemble.Ensembler) (*Epoch, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.publishLocked(name, e, 0)
}

// publishLocked is Publish with r.mu already held; seq is passed to install.
func (r *Registry) publishLocked(name string, e *ensemble.Ensembler, seq uint64) (*Epoch, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	var version int
	if r.store != nil {
		v, err := r.store.Publish(name, e)
		if err != nil {
			return nil, err
		}
		version = v
	} else {
		ms := r.state(name)
		ms.mu.Lock()
		if cur := ms.current.Load(); cur != nil {
			version = cur.version
		}
		ms.mu.Unlock()
		version++
	}
	return r.install(name, version, e, seq, nil), nil
}

// RotateSelector re-draws the secret P-of-N subset of the named model (""
// for the default) and publishes the result as a new version. It is the
// secret holder's call — a serving process never makes it; a server picks
// the new version up by reloading the store. The server bodies are
// unchanged and shared with the parent epoch, whose Seq the new epoch keeps,
// so serving workers keep their bodies; only the client-side secret (and,
// with opts.Tune, the stage-3 head/noise/tail) moves.
//
// Rotation runs outside the publish lock (a fine-tune can take seconds), so
// a Publish, LoadStore or another rotation may land mid-rotation; publishing
// the rotation of a stale pipeline would silently revert the newer model.
// The rotation therefore re-checks the current epoch under the lock before
// publishing and starts over on the fresh pipeline when it moved. The check
// compares epochs, not Seq: a racing rotation keeps the Seq it would be
// compared against.
func (r *Registry) RotateSelector(name string, opts ensemble.RotateOptions) (*Epoch, error) {
	const maxAttempts = 3
	for attempt := 0; ; attempt++ {
		cur, err := r.Epoch(name, 0)
		if err != nil {
			return nil, err
		}
		rotated, err := cur.pipeline.Rotate(opts)
		if err != nil {
			return nil, fmt.Errorf("registry: rotating %q: %w", cur.name, err)
		}
		r.mu.Lock()
		if latest := r.state(cur.name).current.Load(); latest != cur {
			r.mu.Unlock()
			if attempt+1 >= maxAttempts {
				return nil, fmt.Errorf("registry: rotating %q: current version kept moving (%d publishes or rotations raced the rotation)", cur.name, maxAttempts)
			}
			continue // the current epoch moved mid-rotation; rotate the newer one
		}
		ep, err := r.publishLocked(cur.name, rotated, cur.seq)
		r.mu.Unlock()
		if err == nil {
			r.state(ep.name).rotCount.Add(1)
		}
		return ep, err
	}
}

// RotationCount reports how many selector rotations the named model has
// undergone through RotateSelector since this registry was opened.
func (r *Registry) RotationCount(name string) uint64 {
	ms := r.lookupState(name)
	if ms == nil {
		return 0
	}
	return ms.rotCount.Load()
}

// lookupState resolves a model name ("" for default) to its live state
// without creating one, returning nil when unknown.
func (r *Registry) lookupState(name string) *modelState {
	if name == "" {
		def := r.defName.Load()
		if def == nil {
			return nil
		}
		name = *def
	}
	ms, ok := r.models.Load(name)
	if !ok {
		return nil
	}
	return ms.(*modelState)
}

// Epoch resolves a model name and version to a live epoch. name "" means the
// default model; version 0 means the current epoch. A pinned version is
// served from memory when retained, else lazily loaded (and verified) from
// the store.
func (r *Registry) Epoch(name string, version int) (*Epoch, error) {
	if name == "" {
		def := r.defName.Load()
		if def == nil {
			return nil, fmt.Errorf("registry: no models published")
		}
		name = *def
	}
	ms, ok := r.models.Load(name)
	if !ok {
		return nil, fmt.Errorf("registry: unknown model %q", name)
	}
	state := ms.(*modelState)
	if version == 0 {
		cur := state.current.Load()
		if cur == nil {
			return nil, fmt.Errorf("registry: model %q has no current version", name)
		}
		return cur, nil
	}
	if version < 0 {
		return nil, fmt.Errorf("registry: model %q: invalid version %d", name, version)
	}
	state.mu.Lock()
	ep := state.epochs[version]
	state.mu.Unlock()
	if ep != nil {
		return ep, nil
	}
	if r.store == nil {
		return nil, fmt.Errorf("registry: model %q has no version %d", name, version)
	}
	e, man, err := r.store.Load(name, version)
	if err != nil {
		return nil, err
	}
	ep = &Epoch{name: name, version: man.Version, seq: r.seq.Add(1), pipeline: e, leakage: man.Leakage}
	state.mu.Lock()
	if cached := state.epochs[man.Version]; cached != nil {
		ep = cached // another resolver won the race; keep one epoch per version
	} else {
		state.retain(ep)
	}
	state.mu.Unlock()
	return ep, nil
}

// Resolve implements comm.ModelProvider over Epoch.
func (r *Registry) Resolve(model string, version int) (comm.ServedModel, error) {
	ep, err := r.Epoch(model, version)
	if err != nil {
		return nil, err
	}
	return ep, nil
}

// Current returns the live epoch of the named model ("" for default).
func (r *Registry) Current(name string) (*Epoch, error) { return r.Epoch(name, 0) }

// Store returns the attached write-through store (nil for an in-memory-only
// registry) — callers use it for maintenance such as pruning old versions.
func (r *Registry) Store() *Store { return r.store }

// Models lists the model names live in this registry, sorted.
func (r *Registry) Models() []string {
	var out []string
	r.models.Range(func(k, _ any) bool {
		out = append(out, k.(string))
		return true
	})
	sort.Strings(out)
	return out
}

// SetDefault names the model that resolves for requests carrying no model
// header (pre-registry clients and clients that don't care).
func (r *Registry) SetDefault(name string) error {
	if _, ok := r.models.Load(name); !ok {
		return fmt.Errorf("registry: cannot default to unknown model %q", name)
	}
	r.defName.Store(&name)
	return nil
}

// Default returns the default model name ("" when nothing is published).
func (r *Registry) Default() string {
	if def := r.defName.Load(); def != nil {
		return *def
	}
	return ""
}

// LoadStore loads the latest version of every model in the attached store
// into memory, skipping models whose live version is already current or
// newer. It returns how many models were installed or updated — the SIGHUP
// reload path: publish out-of-process, signal the server, zero downtime.
func (r *Registry) LoadStore() (int, error) {
	if r.store == nil {
		return 0, fmt.Errorf("registry: no store attached")
	}
	names, err := r.store.Models()
	if err != nil {
		return 0, err
	}
	updated := 0
	for _, name := range names {
		latest, err := r.store.Latest(name)
		if err != nil {
			return updated, err
		}
		if cur, err := r.Current(name); err == nil && cur.version >= latest {
			continue
		}
		e, man, err := r.store.Load(name, latest)
		if err != nil {
			return updated, err
		}
		r.mu.Lock()
		r.install(name, man.Version, e, 0, man.Leakage)
		r.mu.Unlock()
		updated++
	}
	return updated, nil
}
