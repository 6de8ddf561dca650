// Package verifycache memoizes the two primitive checks behind every
// verification procedure in the paper — the CGA binding test
// addr == H(PK, rn) (Sections 3.1/3.3 check (i)) and the signature test
// (check (ii)) — plus whole route-record chains, in one bounded memo per
// event loop.
//
// Ownership. One Memo serves one event loop: the whole simulation on the
// serial path, or one region under the sharded core (internal/shard
// builds one memo per region, touched only by that region's loop and
// exchanged at no barrier). Every node on the loop checks through a View
// of it, so a verdict one node computed is served to every other node on
// the same loop. A check made in two regions is computed twice: sharing
// across loops would need locks on the hottest verification path. There
// is no locking here, and parallel batch replicates build disjoint memos.
//
// Safety. Both checks are pure functions of their full input. Keys are
// SHA-256 digests over every byte a check reads, domain-separated per
// check kind, so a lookup can only hit when the address, key, modifier,
// message and signature are all identical to an earlier check — whichever
// node made it — and recomputing would return the same verdict. The
// paper's "every node independently verifies" becomes "some node on this
// loop verified these exact bytes". An adversary who wants a stale
// "valid" for forged content needs a SHA-256 collision. Replaying an old
// valid message hits but is exactly as valid as it was the first time:
// replay defense stays in the challenge and sequence fields, which are
// signed and therefore part of the key. Negative verdicts are memoized
// too, so a forgery rejected at one node is rejected from the memo at
// every other, which blunts rather than enables flooding with invalid
// traffic.
//
// Not memoizable: anything keyed by less than the full verified content
// ("this address was fine recently"), and any check whose verdict depends
// on mutable local state (pending challenges, route caches, credit
// standing). Those stay outside this package.
//
// Eviction. A memo holds two generations of at most half its bound each.
// Inserts go to the young generation; when it is full the old one is
// dropped and the young one takes its place. A hit in the old generation
// moves the entry back into the young one, so content still in use
// survives every swap and a long session keeps hitting after the bound is
// reached, with no per-entry list to maintain. An adversary minting
// unlimited fresh forgeries can push the memo to its bound, never past.
//
// Results stay byte-identical with the memo on, off or paranoid, because
// verdicts are all a caller can observe; only Stats and wall time change.
// Paranoid mode is the differential arm that proves it: every hit, chain
// hits included, is recomputed and any disagreement panics.
package verifycache

import (
	"crypto/sha256"
	"encoding/binary"

	"sbr6/internal/cga"
	"sbr6/internal/identity"
	"sbr6/internal/ipv6"
)

// DefaultEntries bounds a memo when the owner does not choose a size. An
// entry costs about 80 bytes, so a full memo costs about 10 MB; one memo
// serves a whole event loop, and it fills only with content some node on
// that loop actually verified.
const DefaultEntries = 1 << 17

// key is a content digest identifying one memoized check.
type key [sha256.Size]byte

// Domain-separation tags, hashed first into every key so the three check
// kinds can never alias.
const (
	tagCGA byte = iota + 1
	tagSig
	tagChain
)

// Stats counts memo traffic. Hits are checks served from the memo; misses
// are checks computed through it. A chain hit stands for the whole
// sequence of per-hop checks the chain would redo.
type Stats struct {
	CGAHits, CGAMisses     uint64
	SigHits, SigMisses     uint64
	ChainHits, ChainMisses uint64
}

// Hits sums hits over all check kinds.
func (s Stats) Hits() uint64 { return s.CGAHits + s.SigHits + s.ChainHits }

// Misses sums misses over all check kinds.
func (s Stats) Misses() uint64 { return s.CGAMisses + s.SigMisses + s.ChainMisses }

// Add accumulates other into s (for aggregating nodes or memos).
func (s *Stats) Add(other Stats) {
	s.CGAHits += other.CGAHits
	s.CGAMisses += other.CGAMisses
	s.SigHits += other.SigHits
	s.SigMisses += other.SigMisses
	s.ChainHits += other.ChainHits
	s.ChainMisses += other.ChainMisses
}

// count records one lookup of the given kind (a key tag).
func (s *Stats) count(tag byte, hit bool) {
	switch {
	case tag == tagCGA && hit:
		s.CGAHits++
	case tag == tagCGA:
		s.CGAMisses++
	case tag == tagSig && hit:
		s.SigHits++
	case tag == tagSig:
		s.SigMisses++
	case hit:
		s.ChainHits++
	default:
		s.ChainMisses++
	}
}

// verdict is one memoized result. Chain verdicts carry the walk's error
// and how many logical signature verifications it counted, so a hit can
// replay the caller's accounting exactly.
type verdict struct {
	err      error
	verifies int
	ok       bool
}

// Memo is one event loop's verification memo. All methods are
// nil-receiver safe; a nil *Memo memoizes nothing.
type Memo struct {
	gen        int // bound of each generation
	young, old map[key]verdict
	stats      Stats
	paranoid   bool
	scratch    Digest // the key under construction, reused by every check
}

// New creates a memo bounded to entries (DefaultEntries when entries <= 0).
// Len never exceeds max(entries, 2).
func New(entries int) *Memo {
	if entries <= 0 {
		entries = DefaultEntries
	}
	return &Memo{
		gen:   max(entries/2, 1),
		young: make(map[key]verdict),
		old:   make(map[key]verdict),
	}
}

// SetParanoid toggles hit re-verification: every hit recomputes its
// check and panics on disagreement. It is the poisoned arm of the
// differential suite and a debugging aid, never on in production runs.
func (m *Memo) SetParanoid(on bool) {
	if m != nil {
		m.paranoid = on
	}
}

// Len reports the number of memoized checks.
func (m *Memo) Len() int {
	if m == nil {
		return 0
	}
	return len(m.young) + len(m.old)
}

// Stats returns a copy of the memo's traffic counters: the sum over every
// View of it (zero for a nil memo).
func (m *Memo) Stats() Stats {
	if m == nil {
		return Stats{}
	}
	return m.stats
}

// Forget drops the verdict memoized for one CGA binding, reporting whether
// one was present. Churning sessions call it when a node leaves for good:
// the departed binding will never be flooded again, so holding it only
// crowds the bound. Forgetting is always safe — the worst case is one
// recompute if the binding reappears.
func (m *Memo) Forget(addr ipv6.Addr, pk []byte, rn uint64) bool {
	if m == nil {
		return false
	}
	k := m.cgaKey(addr, pk, rn)
	_, young := m.young[k]
	_, old := m.old[k]
	delete(m.young, k)
	delete(m.old, k)
	return young || old
}

// View returns a fresh handle on m. A nil memo yields a View that computes
// every check directly.
func (m *Memo) View() View { return View{m: m} }

func (m *Memo) lookup(k key) (verdict, bool) {
	if r, ok := m.young[k]; ok {
		return r, true
	}
	r, ok := m.old[k]
	if ok {
		delete(m.old, k)
		m.store(k, r)
	}
	return r, ok
}

func (m *Memo) store(k key, r verdict) {
	if len(m.young) >= m.gen {
		clear(m.old)
		m.old, m.young = m.young, m.old
	}
	m.young[k] = r
}

func (m *Memo) begin(tag byte) *Digest {
	m.scratch.buf = append(m.scratch.buf[:0], tag)
	return &m.scratch
}

func (m *Memo) cgaKey(addr ipv6.Addr, pk []byte, rn uint64) key {
	d := m.begin(tagCGA)
	d.Bytes(addr[:])
	d.Bytes(pk)
	d.U64(rn)
	return d.sum()
}

// agree panics when a paranoid recompute contradicts a memoized verdict.
func agree(same bool, what string) {
	if !same {
		panic("verifycache: poisoned " + what + " verdict: the memo disagrees with the primitive")
	}
}

// verifyCGA is the one compute site of the CGA primitive beneath the memo.
func verifyCGA(addr ipv6.Addr, pk []byte, rn uint64) bool {
	//sbr6:allow directverify the memo's single compute site: misses, memo-off views and paranoid recomputes all land here
	return cga.Verify(addr, pk, rn)
}

// View is one node's handle on its event loop's Memo. Every check the node
// makes goes through it: the View counts the node's own lookups, the Memo
// counts everyone's, so summing View stats over the nodes of a loop gives
// the Memo's. A View without a memo — the zero value, or a nil *View —
// computes every check directly and records nothing.
type View struct {
	m     *Memo
	stats Stats
}

// Stats returns a copy of this node's lookup counters.
func (v *View) Stats() Stats {
	if v == nil {
		return Stats{}
	}
	return v.stats
}

// find looks k up, counting the lookup on the node's and the memo's stats.
func (v *View) find(tag byte, k key) (verdict, bool) {
	r, hit := v.m.lookup(k)
	v.stats.count(tag, hit)
	v.m.stats.count(tag, hit)
	return r, hit
}

// VerifyCGA reports whether addr's interface ID equals H(pk, rn).
func (v *View) VerifyCGA(addr ipv6.Addr, pk []byte, rn uint64) bool {
	if v == nil || v.m == nil {
		return verifyCGA(addr, pk, rn)
	}
	k := v.m.cgaKey(addr, pk, rn)
	if r, hit := v.find(tagCGA, k); hit {
		if v.m.paranoid {
			agree(r.ok == verifyCGA(addr, pk, rn), "CGA")
		}
		return r.ok
	}
	ok := verifyCGA(addr, pk, rn)
	v.m.store(k, verdict{ok: ok})
	return ok
}

// VerifySig reports whether sig is pk's valid signature over msg.
func (v *View) VerifySig(pk identity.PublicKey, msg, sig []byte) bool {
	if v == nil || v.m == nil {
		return pk.Verify(msg, sig)
	}
	d := v.m.begin(tagSig)
	d.U64(uint64(pk.Suite()))
	d.Bytes(pk.Bytes())
	d.Bytes(msg)
	d.Bytes(sig)
	k := d.sum()
	if r, hit := v.find(tagSig, k); hit {
		if v.m.paranoid {
			agree(r.ok == pk.Verify(msg, sig), "signature")
		}
		return r.ok
	}
	ok := pk.Verify(msg, sig)
	v.m.store(k, verdict{ok: ok})
	return ok
}

// VerifyChain returns the verdict of a whole verification walk — a
// route-record chain — and the number of logical signature verifications
// the walk counts. content hashes every byte the walk reads; the memo adds
// the suite the walk parses keys under. walk performs its checks through
// the View it is handed. A miss runs walk through v and memoizes the
// result; a hit replays it (paranoid: re-walks with direct computation and
// panics on any difference).
func (v *View) VerifyChain(suite identity.Suite, content func(*Digest), walk func(*View) (error, int)) (error, int) {
	if v == nil || v.m == nil {
		return walk(v)
	}
	d := v.m.begin(tagChain)
	d.U64(uint64(suite))
	content(d)
	k := d.sum()
	if r, hit := v.find(tagChain, k); hit {
		if v.m.paranoid {
			err, n := walk(nil)
			agree(errText(err) == errText(r.err) && n == r.verifies, "chain")
		}
		return r.err, r.verifies
	}
	err, n := walk(v)
	v.m.store(k, verdict{err: err, verifies: n})
	return err, n
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// Digest accumulates the key material of one check. Variable-length
// fields are length-prefixed so adjacent fields can never alias
// ("ab"+"c" vs "a"+"bc").
type Digest struct {
	buf []byte
}

// Bytes appends a length-prefixed variable-length field.
func (d *Digest) Bytes(b []byte) {
	d.buf = binary.BigEndian.AppendUint32(d.buf, uint32(len(b)))
	d.buf = append(d.buf, b...)
}

// U64 appends a fixed-width 64-bit field.
func (d *Digest) U64(x uint64) { d.buf = binary.BigEndian.AppendUint64(d.buf, x) }

// U32 appends a fixed-width 32-bit field.
func (d *Digest) U32(x uint32) { d.buf = binary.BigEndian.AppendUint32(d.buf, x) }

func (d *Digest) sum() key { return sha256.Sum256(d.buf) }
