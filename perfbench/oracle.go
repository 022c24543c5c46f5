package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// oracle holds the reference SHA-256 of every operation's encoded
// artifact. A seed maps onto a finite family of generated inputs, so
// the table is keyed by what the seed generates (workload, family
// member, operation; the spec hash for daemon jobs) and covers every
// seed. A missing or different digest fails the operation.
type oracle struct {
	mu     sync.Mutex
	ref    map[string]string
	record bool // fill the table instead of checking it
	seen   map[string]string
}

func loadOracle(path string, record bool) (*oracle, error) {
	o := &oracle{ref: map[string]string{}, record: record, seen: map[string]string{}}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference table: %w", err)
	}
	if err := json.Unmarshal(data, &o.ref); err != nil {
		return nil, fmt.Errorf("parsing reference table %s: %w", path, err)
	}
	return o, nil
}

func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// check compares an operation's artifact digest against the table.
func (o *oracle) check(key, got string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.seen[key]; ok && prev != got {
		return fmt.Errorf("%s: digest %s differs from %s earlier in this run", key, short(got), short(prev))
	}
	o.seen[key] = got
	if o.record {
		return nil
	}
	want, ok := o.ref[key]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference digest", key)
	case want != got:
		return fmt.Errorf("%s: digest %s, reference %s", key, short(got), short(want))
	}
	return nil
}

// short abbreviates a digest for messages.
func short(d string) string {
	if len(d) > 12 {
		return d[:12]
	}
	return d
}

// save merges this run's digests into the table file.
func (o *oracle) save(path string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for k, v := range o.seen {
		o.ref[k] = v
	}
	// Map keys marshal sorted, so the file diffs cleanly.
	out, err := json.MarshalIndent(o.ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
