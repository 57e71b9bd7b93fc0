package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"rfidsched/internal/deploy"
)

// Fingerprint canonically identifies a scheduling problem instance: the
// resolved deployment geometry plus every scheduling-relevant request knob.
// It is the cache key, the single-flight key, the job id, and the shard
// selector, so its definition is the service's correctness pivot:
//
//   - included: algorithm, mode, rho (alg2/alg3 only — canonicalized to 0
//     elsewhere), seed (colorwave/random only), deterministic per-slot poll
//     budget, slot cap, and the full reader/tag geometry (positions and
//     both radii, as exact float64 bit patterns);
//   - excluded: solver worker count (schedules are bit-identical at any
//     value, DESIGN.md §11), wall-clock deadlines (non-deterministic, those
//     requests bypass the cache), and transport knobs (async, no_cache).
//
// Generator requests are fingerprinted by the deployment they expand to,
// not the generator parameters, so a generator spec and its materialized
// JSON deployment hit the same cache line.
//
// The hash is SHA-256 over a versioned, length-prefixed binary encoding;
// any change to the encoding must bump fpVersion. So must any change to the
// schedules a fingerprint keys: a result cached, or a -ckpt-dir checkpoint
// left at drain, under the old version would otherwise resume or replay
// into a schedule that no cold solve produces any more. v2: the
// branch-and-bound's conflict-aware bound changed Alg. 1 schedules (fewer
// PTAS squares run out of evaluation budget) and every schedule under a
// deterministic per-slot poll budget (the budget counts search nodes).
type Fingerprint [sha256.Size]byte

const fpVersion = "rfidserved-fp-v2"

// String returns the fingerprint in hex — the wire form used for job ids.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// ParseFingerprint parses the hex wire form.
func ParseFingerprint(s string) (Fingerprint, bool) {
	var fp Fingerprint
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(fp) {
		return fp, false
	}
	copy(fp[:], b)
	return fp, true
}

// Shard maps the fingerprint onto one of n queue shards. Identical
// instances always land on the same shard, giving the queue natural
// affinity for the recurring-request workload.
func (fp Fingerprint) Shard(n int) int {
	if n <= 1 {
		return 0
	}
	return int(binary.BigEndian.Uint64(fp[:8]) % uint64(n))
}

// fpWriter serializes fingerprint fields into a running hash.
type fpWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *fpWriter) u64(v uint64) {
	binary.BigEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}

func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.h.Write([]byte(s))
}

// FingerprintRequest computes the canonical fingerprint of a normalized
// request and its resolved deployment. Callers must pass requests through
// DecodeRequest (or Request.normalize) first: canonicalization is what
// makes "rho on a PTAS request" and similar irrelevant fields collapse.
func FingerprintRequest(req *Request, dep *deploy.Deployment) Fingerprint {
	w := &fpWriter{h: sha256.New()}
	w.str(fpVersion)
	w.str(req.Algorithm)
	w.str(req.Mode)
	w.f64(req.Rho)
	w.u64(req.Seed)
	w.u64(uint64(req.SlotPolls))
	w.u64(uint64(req.MaxSlots))
	w.u64(uint64(len(dep.Readers)))
	for _, r := range dep.Readers {
		w.f64(r.X)
		w.f64(r.Y)
		w.f64(r.InterferenceR)
		w.f64(r.InterrogationR)
	}
	w.u64(uint64(len(dep.Tags)))
	for _, t := range dep.Tags {
		w.f64(t.X)
		w.f64(t.Y)
	}
	var fp Fingerprint
	w.h.Sum(fp[:0])
	return fp
}
