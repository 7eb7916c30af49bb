package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"mpu/internal/backends"
	"mpu/internal/machine"
	"mpu/internal/workloads"
)

// Simulated-stats parity is the benchmark's correctness check: the simulator
// is deterministic, so a change meant to speed it up must leave every
// simulated statistic identical. Set-up computes the reference machine.Stats
// JSON of every distinct input a workload will issue, on a fresh machine with
// output checking on; every timed result must byte-equal its reference.

// refEntry is one reference: a kernel run identified by its inputs.
type refEntry struct {
	key   string
	k     *workloads.Kernel
	spec  *backends.Spec
	elems int
	seed  int64
	vrfs  int // register files the input needs on one MPU
	stats machine.Stats
	json  []byte // stable machine.Stats encoding
}

func (e *refEntry) runConfig() workloads.RunConfig {
	return workloads.RunConfig{Spec: e.spec, Mode: machine.ModeMPU, TotalElements: e.elems, Seed: e.seed, Check: true}
}

// simVRFs is the register-file count PrepareOn simulates for the entry (what
// fits on one MPU); the build_program probe needs it to assemble the same
// binary.
func (e *refEntry) simVRFs() int { return min(e.vrfs, e.spec.VRFsPerMPU()) }

// refTable holds a workload's references in insertion order.
type refTable struct {
	entries []*refEntry
	byKey   map[string]*refEntry
	raw     map[string][]byte // non-kernel references (pipeline records)
}

func newRefTable() *refTable {
	return &refTable{byKey: map[string]*refEntry{}, raw: map[string][]byte{}}
}

// add returns the reference for (kernel, backend, elems, seed), computing it
// with workloads.Run on a fresh machine the first time it is asked for.
func (t *refTable) add(kernel, backend string, elems int, seed int64) (*refEntry, error) {
	key := fmt.Sprintf("%s|%s|%d|%d", kernel, backend, elems, seed)
	if e, ok := t.byKey[key]; ok {
		return e, nil
	}
	k := workloads.ByName(kernel)
	if k == nil {
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	spec, err := backends.ByName(backend)
	if err != nil {
		return nil, err
	}
	e := &refEntry{key: key, k: k, spec: spec, elems: elems, seed: seed}
	res, err := workloads.Run(k, e.runConfig())
	if err != nil {
		return nil, fmt.Errorf("reference %s: %w", key, err)
	}
	e.stats, e.vrfs = *res.Stats, res.VRFs
	if e.json, err = json.Marshal(res.Stats); err != nil {
		return nil, err
	}
	t.entries = append(t.entries, e)
	t.byKey[key] = e
	return e, nil
}

// digest is the SHA-256 over the table in key order. It is pinned per
// workload for seed 1 under golden/, so a change that alters simulated
// cycles or energy on both the reference and the timed path still fails.
func (t *refTable) digest() string {
	all := make(map[string][]byte, len(t.byKey)+len(t.raw))
	for k, e := range t.byKey {
		all[k] = e.json
	}
	for k, v := range t.raw {
		all[k] = v
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\n%s\n", k, all[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

//go:embed golden/*.sha256
var goldenFS embed.FS

func goldenName(workload string, seed int64) string {
	return fmt.Sprintf("golden/%s.seed%d.sha256", workload, seed)
}

// checkGolden compares a digest with the pinned one for (workload, seed).
// Seeds and sizes without a pinned digest pass: the digest then only has to
// agree between the reference and the timed path.
func checkGolden(workload string, seed int64, sz *sizes, digest string) error {
	if sz != &fullSizes {
		return nil
	}
	want, err := goldenFS.ReadFile(goldenName(workload, seed))
	if err != nil {
		return nil
	}
	if w := strings.TrimSpace(string(want)); w != digest {
		return fmt.Errorf("%s: reference table digest %s differs from the pinned %s: simulated statistics changed", workload, digest, w)
	}
	return nil
}

// writeGolden pins digest for (workload, seed) under dir (the bench package
// directory).
func writeGolden(dir, workload string, seed int64, digest string) error {
	path := filepath.Join(dir, goldenName(workload, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(digest+"\n"), 0o644)
}
