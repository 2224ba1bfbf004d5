// Package registry is the layer between training and serving: a versioned
// on-disk model store plus an in-memory registry the serving stack reads
// through. Training publishes a pipeline under a model name; the store
// assigns it the next version, writes it atomically (temp dir + rename), and
// records a manifest with the persistence format version and a content
// checksum. The Registry holds the published epochs in memory behind atomic
// pointers so a comm server can resolve (model, version) per request and a
// Publish or RotateSelector swaps the live epoch between requests with zero
// downtime — in-flight requests finish on the old epoch, and a server
// compiles new bodies once, on the first request that meets them (a rotation
// shares its parent's).
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ensembler/internal/ensemble"
	"ensembler/internal/faultpoint"
	"ensembler/internal/shard"
)

// Fault-injection sites at the store's durability boundaries (see
// internal/faultpoint; disarmed sites cost one atomic load). The
// publish-rename and manifest-fsync sites simulate a crash, not a clean
// failure: a trigger returns an error AND leaves the publish temp dir on
// disk, exactly what a process death between MkdirTemp and the final rename
// leaves behind — the state the Open-time sweep must recover from.
var (
	fpPublishRename = faultpoint.New("registry/publish-rename")
	fpManifestFsync = faultpoint.New("registry/manifest-fsync")
	fpEpochLoad     = faultpoint.New("registry/epoch-load")
)

// ManifestFormat identifies the manifest.json schema.
const ManifestFormat = 1

const (
	modelFile    = "model.gob"
	manifestFile = "manifest.json"
)

// ShardRange is one shard's body assignment as recorded in a manifest —
// the on-disk mirror of shard.Plan's layout, kept as its own type so the
// manifest schema owns its JSON form.
type ShardRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Manifest describes one published model version: enough to verify the
// artifact (format + checksum + size) and to route without loading it (N, P).
type Manifest struct {
	Format         int    `json:"format"`          // manifest schema version
	Model          string `json:"model"`           // model name
	Version        int    `json:"version"`         // store-assigned version
	SHA256         string `json:"sha256"`          // hex checksum of model.gob
	SizeBytes      int64  `json:"size_bytes"`      // size of model.gob
	PipelineFormat int    `json:"pipeline_format"` // ensemble.FormatVersion written
	N              int    `json:"n"`               // ensemble size
	P              int    `json:"p"`               // secret subset size
	CreatedUnix    int64  `json:"created_unix"`    // publish time

	// Precision records the compute precision this version was published
	// for ("f64" or "f32"). Empty means no commitment: either backend may
	// serve it. When set, ensembler-serve defaults its -precision to it and
	// refuses a contradicting flag, so a version validated against one
	// kernel backend is never silently served by the other.
	Precision string `json:"precision,omitempty"`

	// Shards and ShardRanges record the fleet layout the version was
	// published for (ensembler-train -shards): K shard servers and each
	// one's body range. Zero/absent means the publisher made no sharding
	// commitment; ensembler-serve -shard validates its k/K against these
	// when present, so a fleet member launched with a stale plan fails
	// loudly instead of serving the wrong body subset.
	Shards      int          `json:"shards,omitempty"`
	ShardRanges []ShardRange `json:"shard_ranges,omitempty"`

	// Leakage is the version's leakage score, measured once by the secret
	// holder at publish time (audit.Score). Absent means not recorded: a
	// version published before scores were recorded, or by a caller that
	// does not score. ensembler-serve reports it on /leakage.
	Leakage *Leakage `json:"leakage,omitempty"`
}

// Leakage is a recorded leakage score: how well an inversion attack
// reconstructs calibration images from the features the version's client
// transmits, next to the calibration floor (the SSIM of the best
// input-independent reconstruction). A score is a property of the version,
// so it is measured once, where the secret is held, and never by the server.
type Leakage struct {
	Strategy    string  `json:"strategy"`    // attack that produced the score ("oracle")
	SSIM        float64 `json:"ssim"`        // reconstruction SSIM on the eval images
	PSNR        float64 `json:"psnr"`        // reconstruction PSNR in dB
	Floor       float64 `json:"floor"`       // calibration floor SSIM
	Seed        int64   `json:"seed"`        // attack seed
	Calibration int     `json:"calibration"` // synthetic calibration images the attacker trained on
}

// validLeakage reports whether a score can be recorded and trusted when
// read back: finite numbers, SSIMs in [-1, 1], a named strategy and a
// positive calibration size.
func validLeakage(l *Leakage) error {
	for _, v := range []float64{l.SSIM, l.PSNR, l.Floor} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("leakage score %+v is not finite", *l)
		}
	}
	if l.SSIM < -1 || l.SSIM > 1 || l.Floor < -1 || l.Floor > 1 {
		return fmt.Errorf("leakage SSIM %v or floor %v outside [-1, 1]", l.SSIM, l.Floor)
	}
	if l.Strategy == "" {
		return fmt.Errorf("leakage score names no strategy")
	}
	if l.Calibration <= 0 {
		return fmt.Errorf("leakage score has calibration size %d", l.Calibration)
	}
	return nil
}

// Store is a versioned on-disk model store with the layout
//
//	<dir>/<model-name>/v0001/{model.gob, manifest.json}
//
// Publishes are atomic: the version directory appears via rename only after
// its contents are fully written, so a concurrent reader never observes a
// half-written version. One Store serializes its own publishes; concurrent
// publishers from separate processes are out of scope.
type Store struct {
	dir string
	mu  sync.Mutex

	// quarantined lists the torn publishes (stale ".publish-*" temp dirs
	// from a crashed publisher) the Open-time sweep moved into the
	// quarantine area, as "model/entry" strings — the operator's evidence
	// that a prior process died mid-publish.
	quarantined []string
}

// quarantineDir is the store-internal area torn publishes are moved into.
// It is dot-prefixed, so Models() never lists it and no artifact inside it
// can ever be resolved or served.
const quarantineDir = ".quarantine"

// maxQuarantined bounds the quarantine area per model: evidence of the most
// recent crashes is what an operator needs; an unbounded graveyard is not.
const maxQuarantined = 8

// Open opens an existing store rooted at dir and verifies every version it
// finds: manifest readable and well-formed, model file present, size and
// checksum matching. A corrupted or truncated artifact fails Open with an
// error naming the model, version, and defect.
func Open(dir string) (*Store, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: opening store %s: %w", dir, err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("registry: store path %s is not a directory", dir)
	}
	s := &Store{dir: dir}
	// Crash recovery before verification: a publisher that died between
	// MkdirTemp and the final rename leaves a ".publish-*" temp dir in the
	// model directory. Rename is atomic, so such a dir is by construction an
	// incomplete artifact — quarantine it (for postmortem, bounded) rather
	// than leaving it on disk forever or failing the open.
	if err := s.sweepTornPublishes(); err != nil {
		return nil, err
	}
	models, err := s.Models()
	if err != nil {
		return nil, err
	}
	for _, name := range models {
		versions, err := s.Versions(name)
		if err != nil {
			return nil, err
		}
		for _, v := range versions {
			if _, err := s.verify(name, v); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Create makes the store directory (if needed) and opens it.
func Create(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating store %s: %w", dir, err)
	}
	return Open(dir)
}

// Quarantined lists the torn publishes the opening sweep moved into the
// quarantine area, as "model/entry" strings. Non-empty means a prior
// process crashed mid-publish; the published versions themselves are
// unaffected (rename is atomic), which is exactly why the leftovers are
// safe to sweep.
func (s *Store) Quarantined() []string { return s.quarantined }

// sweepTornPublishes moves every stale ".publish-*" temp dir out of the
// model directories into <dir>/.quarantine/<model>/, keeping at most
// maxQuarantined entries per model (oldest evicted).
func (s *Store) sweepTornPublishes() error {
	models, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("registry: sweeping store %s: %w", s.dir, err)
	}
	for _, m := range models {
		if !m.IsDir() || strings.HasPrefix(m.Name(), ".") {
			continue
		}
		modelDir := filepath.Join(s.dir, m.Name())
		entries, err := os.ReadDir(modelDir)
		if err != nil {
			return fmt.Errorf("registry: sweeping model %q: %w", m.Name(), err)
		}
		swept := false
		for _, e := range entries {
			if !e.IsDir() || !strings.HasPrefix(e.Name(), ".publish-") {
				continue
			}
			qdir := filepath.Join(s.dir, quarantineDir, m.Name())
			if err := os.MkdirAll(qdir, 0o755); err != nil {
				return fmt.Errorf("registry: quarantining torn publish %s/%s: %w", m.Name(), e.Name(), err)
			}
			if err := os.Rename(filepath.Join(modelDir, e.Name()), filepath.Join(qdir, e.Name())); err != nil {
				return fmt.Errorf("registry: quarantining torn publish %s/%s: %w", m.Name(), e.Name(), err)
			}
			s.quarantined = append(s.quarantined, m.Name()+"/"+e.Name())
			swept = true
		}
		if swept {
			if err := pruneQuarantine(filepath.Join(s.dir, quarantineDir, m.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

// pruneQuarantine keeps the newest maxQuarantined entries (by mod time) of
// one model's quarantine directory.
func pruneQuarantine(qdir string) error {
	entries, err := os.ReadDir(qdir)
	if err != nil {
		return fmt.Errorf("registry: pruning quarantine %s: %w", qdir, err)
	}
	if len(entries) <= maxQuarantined {
		return nil
	}
	type aged struct {
		name string
		mod  time.Time
	}
	all := make([]aged, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent cleanup; nothing to prune
		}
		all = append(all, aged{name: e.Name(), mod: info.ModTime()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mod.Before(all[j].mod) })
	for _, a := range all[:max(0, len(all)-maxQuarantined)] {
		if err := os.RemoveAll(filepath.Join(qdir, a.name)); err != nil {
			return fmt.Errorf("registry: pruning quarantine %s: %w", qdir, err)
		}
	}
	return nil
}

// validName rejects model names that could escape the store layout or
// collide with its internal entries.
func validName(name string) error {
	if name == "" {
		return fmt.Errorf("registry: empty model name")
	}
	if strings.HasPrefix(name, ".") {
		return fmt.Errorf("registry: model name %q must not start with a dot", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("registry: model name %q contains %q (want letters, digits, '-', '_', '.')", name, r)
		}
	}
	return nil
}

// validPrecision accepts the precision commitments a manifest may record:
// empty (no commitment), "f64", or "f32". The string form matches
// comm.ParsePrecision and the ensembler-serve -precision flag.
func validPrecision(p string) error {
	switch p {
	case "", "f64", "f32":
		return nil
	}
	return fmt.Errorf("registry: unknown precision %q (want \"f64\", \"f32\", or empty)", p)
}

// versionDir formats a version directory name; parseVersion inverts it.
func versionDir(v int) string { return fmt.Sprintf("v%04d", v) }

// parseVersion accepts only a 'v' followed entirely by digits — a stray
// sibling like "v0002-backup" must be ignored, not half-parsed as version 2
// and then fail verification.
func parseVersion(entry string) (int, bool) {
	if !strings.HasPrefix(entry, "v") || len(entry) == 1 {
		return 0, false
	}
	v, err := strconv.Atoi(entry[1:])
	if err != nil || v <= 0 {
		return 0, false
	}
	return v, true
}

// Models lists the model names present on disk, sorted.
func (s *Store) Models() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("registry: listing store %s: %w", s.dir, err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// Versions lists the published versions of one model, ascending.
func (s *Store) Versions(name string) ([]int, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("registry: listing model %q: %w", name, err)
	}
	var out []int
	for _, e := range entries {
		if v, ok := parseVersion(e.Name()); ok && e.IsDir() {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out, nil
}

// Latest returns the highest published version of a model.
func (s *Store) Latest(name string) (int, error) {
	versions, err := s.Versions(name)
	if err != nil {
		return 0, err
	}
	if len(versions) == 0 {
		return 0, fmt.Errorf("registry: model %q has no published versions", name)
	}
	return versions[len(versions)-1], nil
}

// PublishOptions are the commitments a publisher may record in a version's
// manifest. The zero value records none.
type PublishOptions struct {
	// Shards records a K-shard fleet layout (shard.Plan over the pipeline's
	// N), so every fleet member can validate its -shard k/K against what
	// training intended. 0 makes no sharding commitment.
	Shards int
	// Precision commits the version to "f64" or "f32" compute:
	// ensembler-serve defaults its -precision to it and refuses a flag that
	// contradicts it. "" makes no commitment.
	Precision string
	// Leakage is the version's leakage score (audit.Score); nil records
	// none.
	Leakage *Leakage
}

// Publish writes the pipeline as the next version of the named model and
// returns that version, recording no commitments.
func (s *Store) Publish(name string, e *ensemble.Ensembler) (int, error) {
	return s.PublishWith(name, e, PublishOptions{})
}

// PublishPrecision is Publish with a compute-precision commitment ("f64" or
// "f32") recorded in the manifest.
func (s *Store) PublishPrecision(name string, e *ensemble.Ensembler, precision string) (int, error) {
	return s.PublishWith(name, e, PublishOptions{Precision: precision})
}

// PublishWith writes the pipeline as the next version of the named model,
// recording opts in its manifest, and returns that version. The artifact is
// written to a temp directory and renamed into place, so readers only ever
// see complete versions; on any failure the temp directory is removed and
// the store is unchanged.
func (s *Store) PublishWith(name string, e *ensemble.Ensembler, opts PublishOptions) (int, error) {
	if err := validName(name); err != nil {
		return 0, err
	}
	if err := validPrecision(opts.Precision); err != nil {
		return 0, err
	}
	if opts.Leakage != nil {
		if err := validLeakage(opts.Leakage); err != nil {
			return 0, fmt.Errorf("registry: publishing %q: %w", name, err)
		}
	}
	var shardRanges []ShardRange
	if opts.Shards > 0 {
		plan, err := shard.Plan(e.Cfg.N, opts.Shards)
		if err != nil {
			return 0, fmt.Errorf("registry: publishing %q: %w", name, err)
		}
		for _, r := range plan {
			shardRanges = append(shardRanges, ShardRange{Lo: r.Lo, Hi: r.Hi})
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	modelDir := filepath.Join(s.dir, name)
	if err := os.MkdirAll(modelDir, 0o755); err != nil {
		return 0, fmt.Errorf("registry: publishing %q: %w", name, err)
	}
	version := 1
	if versions, err := s.Versions(name); err == nil && len(versions) > 0 {
		version = versions[len(versions)-1] + 1
	}

	tmp, err := os.MkdirTemp(modelDir, ".publish-*")
	if err != nil {
		return 0, fmt.Errorf("registry: publishing %q: %w", name, err)
	}
	// A clean failure removes the temp dir; an injected crash (the
	// publish-rename / manifest-fsync fault sites) leaves it behind, like a
	// process death would — the torn state the Open-time sweep recovers.
	crashed := false
	defer func() {
		if !crashed {
			os.RemoveAll(tmp) // no-op after a successful rename
		}
	}()

	sum, size, err := writeModel(filepath.Join(tmp, modelFile), e)
	if err != nil {
		return 0, fmt.Errorf("registry: publishing %q v%d: %w", name, version, err)
	}
	man := Manifest{
		Format:         ManifestFormat,
		Model:          name,
		Version:        version,
		SHA256:         sum,
		SizeBytes:      size,
		PipelineFormat: ensemble.FormatVersion,
		N:              e.Cfg.N,
		P:              e.Cfg.P,
		CreatedUnix:    time.Now().Unix(),
		Precision:      opts.Precision,
		Shards:         opts.Shards,
		ShardRanges:    shardRanges,
		Leakage:        opts.Leakage,
	}
	if err := writeManifest(filepath.Join(tmp, manifestFile), man); err != nil {
		crashed = errors.Is(err, faultpoint.ErrInjected)
		return 0, fmt.Errorf("registry: publishing %q v%d: %w", name, version, err)
	}
	if err := fpPublishRename.Inject(); err != nil {
		crashed = true
		return 0, fmt.Errorf("registry: publishing %q v%d: %w", name, version, err)
	}
	if err := os.Rename(tmp, filepath.Join(modelDir, versionDir(version))); err != nil {
		return 0, fmt.Errorf("registry: publishing %q v%d: %w", name, version, err)
	}
	return version, nil
}

// writeModel saves the pipeline to path, hashing the bytes as they are
// written, and returns the hex checksum and size.
func writeModel(path string, e *ensemble.Ensembler) (string, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n := &countingWriter{}
	if err := e.Save(io.MultiWriter(f, h, n)); err != nil {
		return "", 0, err
	}
	if err := f.Close(); err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n.n, nil
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// writeManifest writes and fsyncs the manifest: the manifest is the version's
// integrity commitment (checksum, size, shape), so it must be durable before
// the rename publishes the directory — a post-rename crash must never leave a
// visible version whose manifest is a hole in the page cache.
func writeManifest(path string, man Manifest) error {
	b, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := fpManifestFsync.Inject(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Manifest reads and validates one version's manifest (without hashing the
// model file; use verify or Load for that).
func (s *Store) Manifest(name string, version int) (*Manifest, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, name, versionDir(version), manifestFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: model %q v%d: reading manifest: %w", name, version, err)
	}
	man, err := parseManifest(b, name, version)
	if err != nil {
		return nil, fmt.Errorf("registry: model %q v%d: %w", name, version, err)
	}
	return man, nil
}

// parseManifest decodes and validates manifest bytes against the model name
// and version the caller expects from the store layout. It is the whole
// decode boundary for manifests — a file anyone can edit on disk — so every
// field that later code relies on is checked here, and malformed input is
// always an error, never a panic (FuzzManifestRead holds it to that).
func parseManifest(b []byte, name string, version int) (*Manifest, error) {
	var man Manifest
	if err := json.Unmarshal(b, &man); err != nil {
		return nil, fmt.Errorf("malformed manifest: %w", err)
	}
	if man.Format != ManifestFormat {
		return nil, fmt.Errorf("manifest format %d, this build reads %d", man.Format, ManifestFormat)
	}
	if man.Model != name || man.Version != version {
		return nil, fmt.Errorf("manifest claims to be %q v%d", man.Model, man.Version)
	}
	if err := validName(man.Model); err != nil {
		return nil, err
	}
	if man.Version <= 0 {
		return nil, fmt.Errorf("manifest has non-positive version %d", man.Version)
	}
	if len(man.SHA256) != hex.EncodedLen(sha256.Size) {
		return nil, fmt.Errorf("manifest checksum %q is not a sha256 hex digest", man.SHA256)
	}
	if _, err := hex.DecodeString(man.SHA256); err != nil {
		return nil, fmt.Errorf("manifest checksum %q is not a sha256 hex digest", man.SHA256)
	}
	if man.SizeBytes < 0 {
		return nil, fmt.Errorf("manifest has negative artifact size %d", man.SizeBytes)
	}
	if man.N <= 0 || man.P <= 0 || man.P > man.N {
		return nil, fmt.Errorf("manifest has invalid ensemble shape N=%d P=%d", man.N, man.P)
	}
	if err := validPrecision(man.Precision); err != nil {
		return nil, err
	}
	if man.Shards < 0 || man.Shards > man.N {
		return nil, fmt.Errorf("manifest has invalid shard count %d for N=%d", man.Shards, man.N)
	}
	if man.Shards == 0 && len(man.ShardRanges) != 0 {
		return nil, fmt.Errorf("manifest has %d shard ranges but no shard count", len(man.ShardRanges))
	}
	if man.Shards > 0 {
		if len(man.ShardRanges) != man.Shards {
			return nil, fmt.Errorf("manifest records %d shard ranges for %d shards", len(man.ShardRanges), man.Shards)
		}
		lo := 0
		for i, r := range man.ShardRanges {
			if r.Lo != lo || r.Hi <= r.Lo {
				return nil, fmt.Errorf("manifest shard range %d (%+v) does not tile [0,%d)", i, r, man.N)
			}
			lo = r.Hi
		}
		if lo != man.N {
			return nil, fmt.Errorf("manifest shard ranges cover %d bodies, N=%d", lo, man.N)
		}
	}
	if man.Leakage != nil {
		if err := validLeakage(man.Leakage); err != nil {
			return nil, fmt.Errorf("manifest %w", err)
		}
	}
	return &man, nil
}

// verify checks one version end to end: manifest well-formed, model file
// present, and size and checksum matching the manifest.
func (s *Store) verify(name string, version int) (*Manifest, error) {
	man, err := s.Manifest(name, version)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, name, versionDir(version), modelFile)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("registry: model %q v%d: missing model file: %w", name, version, err)
	}
	defer f.Close()
	h := sha256.New()
	size, err := io.Copy(h, f)
	if err != nil {
		return nil, fmt.Errorf("registry: model %q v%d: reading model file: %w", name, version, err)
	}
	if size != man.SizeBytes {
		return nil, fmt.Errorf("registry: model %q v%d: model file is %d bytes, manifest says %d (truncated?)", name, version, size, man.SizeBytes)
	}
	if sum := hex.EncodeToString(h.Sum(nil)); sum != man.SHA256 {
		return nil, fmt.Errorf("registry: model %q v%d: model file checksum %s does not match manifest %s (corrupted)", name, version, sum, man.SHA256)
	}
	return man, nil
}

// Load verifies and loads one version of a model; version <= 0 means latest.
// The returned manifest names the version loaded and carries what its
// publisher recorded.
func (s *Store) Load(name string, version int) (*ensemble.Ensembler, *Manifest, error) {
	if err := fpEpochLoad.Inject(); err != nil {
		return nil, nil, fmt.Errorf("registry: model %q: loading epoch: %w", name, err)
	}
	if version <= 0 {
		latest, err := s.Latest(name)
		if err != nil {
			return nil, nil, err
		}
		version = latest
	}
	man, err := s.verify(name, version)
	if err != nil {
		return nil, nil, err
	}
	e, err := ensemble.LoadFile(filepath.Join(s.dir, name, versionDir(version), modelFile))
	if err != nil {
		return nil, nil, fmt.Errorf("registry: model %q v%d: %w", name, version, err)
	}
	return e, man, nil
}
