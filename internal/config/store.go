package config

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Store holds the unified representation of one or more configuration
// sources and answers instance-discovery queries from the validation
// engine. Discovery is the hot path (§5.2 reports >5 million queries in
// some Azure validation runs), so the store maintains a trie over class
// paths, per-class instance lists, and a sharded query cache.
//
// Concurrency model (see DESIGN.md "Concurrency model"): mutations
// (Add/AddAll) build into a mutable staging area under the store lock;
// Snapshot seals the staging area into an immutable Snapshot whose
// indexes are read with no locking. Discover routes through the current
// snapshot. A sealed snapshot is never mutated — the first mutation
// after a seal clones the index maps (copy-on-write), so goroutines
// holding the old snapshot keep a consistent view. The Store is safe
// for concurrent use: Add may race with Discover, and each Discover
// sees either the pre- or post-Add world, never a torn one.
type Store struct {
	mu sync.Mutex // guards the staging area below and sealing

	instances []*Instance
	byClass   map[string][]*Instance // class ID -> instances, load order
	classes   []string               // class IDs, load order, deduplicated
	classSegs map[string][]string    // class ID -> segment names
	byLeaf    map[string][]string    // leaf name -> class IDs

	// snap is the current sealed snapshot, nil when the staging area has
	// changed since the last seal. shared marks that a sealed snapshot
	// may still alias the staging maps, so the next mutation must clone
	// them first.
	snap   atomic.Pointer[Snapshot]
	shared bool

	// contentID is an optional caller-supplied content address (see
	// SetContentID); cleared by any mutation so a stale address can never
	// outlive the content it named.
	contentID string

	cacheMode CacheMode

	// Stats counts discovery work for the Figure 4 / §5.2 ablations.
	// Counters are striped and atomic so parallel validation runs
	// race-free; they accumulate across snapshots.
	Stats DiscoveryStats
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byClass:   make(map[string][]*Instance),
		classSegs: make(map[string][]string),
		byLeaf:    make(map[string][]string),
	}
}

// Add inserts an instance into the store. The next Discover (or
// Snapshot) seals a fresh snapshot; readers holding an earlier snapshot
// are unaffected.
func (st *Store) Add(in *Instance) {
	st.mu.Lock()
	st.addLocked(in)
	st.mu.Unlock()
}

// AddAll inserts a batch of instances under one lock acquisition.
func (st *Store) AddAll(ins []*Instance) {
	st.mu.Lock()
	for _, in := range ins {
		st.addLocked(in)
	}
	st.mu.Unlock()
}

func (st *Store) addLocked(in *Instance) {
	if st.shared {
		// A sealed snapshot aliases the staging maps: clone before the
		// first mutation so its view stays frozen. Slices need no clone —
		// snapshots hold full-expression headers, so staging appends
		// never land inside a sealed view.
		st.byClass = cloneMap(st.byClass)
		st.classSegs = cloneMap(st.classSegs)
		st.byLeaf = cloneMap(st.byLeaf)
		st.shared = false
	}
	st.snap.Store(nil)
	st.contentID = "" // content changed; any prior address is stale
	st.instances = append(st.instances, in)
	cp := classID(in.Key)
	if _, seen := st.byClass[cp]; !seen {
		st.classes = append(st.classes, cp)
		names := make([]string, len(in.Key.Segs))
		for i, seg := range in.Key.Segs {
			names[i] = seg.Name
		}
		st.classSegs[cp] = names
		leaf := in.Key.Leaf()
		st.byLeaf[leaf] = append(st.byLeaf[leaf], cp)
	}
	st.byClass[cp] = append(st.byClass[cp], in)
}

func cloneMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Snapshot seals the staging area into an immutable view, building the
// class-path trie and a fresh discovery cache, and returns it. Sealing
// is idempotent until the next mutation: repeated calls return the same
// pointer via one atomic load.
func (st *Store) Snapshot() *Snapshot {
	if sn := st.snap.Load(); sn != nil {
		return sn
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if sn := st.snap.Load(); sn != nil {
		return sn
	}
	sn := &Snapshot{
		instances: st.instances[:len(st.instances):len(st.instances)],
		byClass:   st.byClass,
		classes:   st.classes[:len(st.classes):len(st.classes)],
		classSegs: st.classSegs,
		byLeaf:    st.byLeaf,
		trie:      buildTrie(st.classes, st.classSegs),
		cache:     newDiscoveryCache(st.cacheMode),
		stats:     &st.Stats,
		contentID: st.contentID,
	}
	st.snap.Store(sn)
	st.shared = true
	return sn
}

// SetContentID records a content address for the store's current
// contents: a digest of the exact bytes the instances were parsed from.
// The address is sealed into subsequent snapshots (dropping an existing
// seal so the next Snapshot carries it) and cleared by any mutation.
//
// Contract: callers must guarantee that two stores given the same
// non-empty ID hold identical instance sequences — Snapshot.Diff trusts
// equal IDs to mean an empty delta without walking a single key. The
// ingest layer derives IDs from source bytes (name, format, scope,
// payload), which satisfies the contract because parsing is
// deterministic.
func (st *Store) SetContentID(id string) {
	st.mu.Lock()
	st.contentID = id
	st.snap.Store(nil) // shared stays true: an old snapshot may live on
	st.mu.Unlock()
}

// SetCacheMode selects the discovery-cache implementation for snapshots
// sealed from now on (the current snapshot is dropped). The single-mutex
// mode exists for the scaling ablation; production code never calls
// this.
func (st *Store) SetCacheMode(m CacheMode) {
	st.mu.Lock()
	st.cacheMode = m
	st.snap.Store(nil) // shared stays true: the old snapshot may live on
	st.mu.Unlock()
}

// Len returns the number of instances in the store.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.instances)
}

// Instances returns all instances in load order. The slice is shared;
// callers must not modify it.
func (st *Store) Instances() []*Instance { return st.Snapshot().Instances() }

// Classes returns all class paths (dotted display form) in load order.
func (st *Store) Classes() []string { return st.Snapshot().Classes() }

// ClassInstances returns the instances of one class; see
// Snapshot.ClassInstances.
func (st *Store) ClassInstances(classPath string) []*Instance {
	return st.Snapshot().ClassInstances(classPath)
}

// classSep separates segment names inside a class ID; it cannot appear in
// configuration names.
const classSep = "\x00"

// classID builds the unambiguous class identity of a key: its segment
// names joined by classSep, in one allocation.
func classID(k Key) string {
	n := len(k.Segs)
	for _, s := range k.Segs {
		n += len(s.Name)
	}
	var b strings.Builder
	b.Grow(n)
	for i, s := range k.Segs {
		if i > 0 {
			b.WriteString(classSep)
		}
		b.WriteString(s.Name)
	}
	return b.String()
}

func displayClass(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		if id[i] == 0 {
			out = append(out, '.')
			continue
		}
		out = append(out, id[i])
	}
	return string(out)
}

func hasClassSep(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			return true
		}
	}
	return false
}

// Discover finds all instances matching the pattern on the current
// snapshot, sealing one first if the store changed. The returned slice
// is owned by the caller: the cache keeps the canonical result, and an
// aliased slice would let a caller that sorts or appends corrupt every
// later query.
func (st *Store) Discover(p Pattern) []*Instance {
	return st.Snapshot().Discover(p)
}

// DiscoverNaive is the paper's initial discovery implementation, kept for
// the §5.2 ablation benchmark; see Snapshot.DiscoverNaive.
func (st *Store) DiscoverNaive(p Pattern) []*Instance {
	return st.Snapshot().DiscoverNaive(p)
}

// copyResult hands a discovery result to the caller to own; the cache
// keeps the canonical slice.
func copyResult(ins []*Instance) []*Instance {
	if ins == nil {
		return nil
	}
	out := make([]*Instance, len(ins))
	copy(out, ins)
	return out
}

// ResetStats zeroes the discovery counters.
func (st *Store) ResetStats() { st.Stats.reset() }

// InvalidateCache clears the current snapshot's discovery cache in
// place. Benchmarks use it to measure cold discovery; the corpus
// generators use it after mutating instance values directly (the sealed
// indexes key on instance *keys*, so value edits only invalidate cached
// result slices, not the trie).
func (st *Store) InvalidateCache() {
	if sn := st.snap.Load(); sn != nil {
		sn.cache.reset()
	}
}

func hasGlob(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '*' {
			return true
		}
	}
	return false
}

// trieNode is a node in the class-path trie. Children are keyed by exact
// segment name; wildcard pattern segments fan out over all children.
// Nodes are immutable once their snapshot is sealed.
type trieNode struct {
	children map[string]*trieNode
	// classPath is nonempty when a class terminates at this node.
	classPath string
}

func newTrieNode() *trieNode {
	return &trieNode{children: make(map[string]*trieNode)}
}

// buildTrie builds the class-path trie for a seal.
func buildTrie(classes []string, classSegs map[string][]string) *trieNode {
	root := newTrieNode()
	for _, cp := range classes {
		node := root
		for _, name := range classSegs[cp] {
			child, ok := node.children[name]
			if !ok {
				child = newTrieNode()
				node.children[name] = child
			}
			node = child
		}
		node.classPath = cp
	}
	return root
}

// match descends the trie along the pattern segments, collecting class
// paths that terminate exactly at pattern length.
func (n *trieNode) match(segs []PatSeg, depth int, out *[]string) {
	if depth == len(segs) {
		if n.classPath != "" {
			*out = append(*out, n.classPath)
		}
		return
	}
	name := segs[depth].Name
	if !hasGlob(name) {
		if child, ok := n.children[name]; ok {
			child.match(segs, depth+1, out)
		}
		return
	}
	// Wildcard segment: try all children with matching names, in sorted
	// order for deterministic results.
	names := make([]string, 0, len(n.children))
	for cn := range n.children {
		if Glob(name, cn) {
			names = append(names, cn)
		}
	}
	sort.Strings(names)
	for _, cn := range names {
		n.children[cn].match(segs, depth+1, out)
	}
}

// GroupByPrefix partitions instances by the canonical rendering of their
// first n key segments. It implements compartment isolation (§4.2.2):
// instances under the same compartment instance share a group. Group
// order follows first appearance.
func GroupByPrefix(ins []*Instance, n int) (order []string, groups map[string][]*Instance) {
	groups = make(map[string][]*Instance)
	for _, in := range ins {
		p := in.Key.PrefixString(n)
		if _, ok := groups[p]; !ok {
			order = append(order, p)
		}
		groups[p] = append(groups[p], in)
	}
	return order, groups
}
