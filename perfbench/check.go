package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"

	"fuzzyknn"
	"fuzzyknn/internal/server"
)

// rknnProbes is how many α values inside the RKNN window each checked RKNN
// answer is compared at. The library's Naive RKNN is the exact oracle, but
// with continuous memberships it evaluates one AKNN per distinct level in
// the window (about 2.4e5 at N=20000), which takes minutes; the qualifying
// ranges are checked pointwise against LinearScanAKNN instead.
const rknnProbes = 2

// check is one served answer to compare with an oracle.
type check struct {
	req  *Request
	body []byte
	seed uint64
}

// runChecks compares each answer with the library's oracles on ix, two at a
// time, and returns a description of every mismatch.
func runChecks(ix *fuzzyknn.Index, checks []check) []string {
	var mu sync.Mutex
	var bad []string
	jobs := make(chan check)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if err := verify(ix, c); err != nil {
					mu.Lock()
					bad = append(bad, err.Error())
					mu.Unlock()
				}
			}
		}()
	}
	for _, c := range checks {
		jobs <- c
	}
	close(jobs)
	wg.Wait()
	slices.Sort(bad)
	return bad
}

func verify(ix *fuzzyknn.Index, c check) error {
	r := c.req
	q := r.Query
	if q == nil {
		var err error
		if q, err = ix.Object(r.QueryID); err != nil {
			return fmt.Errorf("%s oracle: query %d: %v", r.Kind, r.QueryID, err)
		}
	}
	switch r.Kind {
	case AKNN:
		var resp server.QueryResponse
		if err := json.Unmarshal(c.body, &resp); err != nil {
			return fmt.Errorf("aknn: bad answer: %v", err)
		}
		want, err := scanIDs(ix, q, queryK, queryAlpha, -1)
		if err != nil {
			return err
		}
		return sameIDs("aknn", resultIDs(resp.Results), want)
	case Range:
		var resp server.QueryResponse
		if err := json.Unmarshal(c.body, &resp); err != nil {
			return fmt.Errorf("range: bad answer: %v", err)
		}
		want, err := scanIDs(ix, q, ix.Len(), queryAlpha, rangeRadius)
		if err != nil {
			return err
		}
		return sameIDs("range", resultIDs(resp.Results), want)
	case RKNN:
		var resp server.RKNNResponse
		if err := json.Unmarshal(c.body, &resp); err != nil {
			return fmt.Errorf("rknn: bad answer: %v", err)
		}
		rng := rand.New(rand.NewPCG(c.seed, 7))
		for i := 0; i < rknnProbes; i++ {
			alpha := rknnAlphaLo + rng.Float64()*(rknnAlphaHi-rknnAlphaLo)
			want, err := scanIDs(ix, q, queryK, alpha, -1)
			if err != nil {
				return err
			}
			var got []uint64
			for _, rr := range resp.Results {
				for _, iv := range rr.Qualifying {
					if contains(iv, alpha) {
						got = append(got, rr.ID)
						break
					}
				}
			}
			if err := sameIDs(fmt.Sprintf("rknn at alpha %.6f", alpha), got, want); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("no oracle for %s", r.Kind)
}

// scanIDs is the linear-scan oracle: the ids of the k nearest objects at
// alpha, or, with radius >= 0, of every object within radius.
func scanIDs(ix *fuzzyknn.Index, q *fuzzyknn.Object, k int, alpha, radius float64) ([]uint64, error) {
	rs, _, err := ix.LinearScanAKNN(q, k, alpha)
	if err != nil {
		return nil, fmt.Errorf("oracle: %v", err)
	}
	var ids []uint64
	for _, r := range rs {
		if radius < 0 || r.Dist <= radius {
			ids = append(ids, r.ID)
		}
	}
	return ids, nil
}

func resultIDs(rs []server.ResultJSON) []uint64 {
	ids := make([]uint64, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	return ids
}

func sameIDs(what string, got, want []uint64) error {
	got, want = slices.Clone(got), slices.Clone(want)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%s: served ids %v, oracle ids %v", what, got, want)
	}
	return nil
}

func contains(iv server.IntervalJSON, x float64) bool {
	lo := x > iv.Lo || (!iv.LoOpen && x == iv.Lo)
	hi := x < iv.Hi || (!iv.HiOpen && x == iv.Hi)
	return lo && hi
}

// ledger is the benchmark's own record of the live objects of a log
// workload: the initial population plus every acknowledged insert, minus
// every acknowledged delete.
type ledger struct {
	live    map[uint64]*fuzzyknn.Object
	deleted []uint64
}

func newLedger(objs []*fuzzyknn.Object) *ledger {
	l := &ledger{live: make(map[uint64]*fuzzyknn.Object, len(objs))}
	for _, o := range objs {
		l.live[o.ID()] = o
	}
	return l
}

// apply records an acknowledged write. For a batch, failedIDs lists the
// items the server reported as failed; they did not commit.
func (l *ledger) apply(r *Request, failedIDs map[uint64]bool) {
	for _, o := range r.Inserts {
		if !failedIDs[o.ID()] {
			l.live[o.ID()] = o
		}
	}
	for _, id := range r.Deletes {
		if !failedIDs[id] {
			delete(l.live, id)
			l.deleted = append(l.deleted, id)
		}
	}
}

// objects returns the live objects in id order.
func (l *ledger) objects() []*fuzzyknn.Object {
	out := make([]*fuzzyknn.Object, 0, len(l.live))
	for _, o := range l.live {
		out = append(out, o)
	}
	slices.SortFunc(out, func(a, b *fuzzyknn.Object) int { return cmp.Compare(a.ID(), b.ID()) })
	return out
}

// encodedBytes is the size of the live objects in the store's record
// format (id u64 | npoints u32 | dims u32 | coords | memberships | crc u32).
func (l *ledger) encodedBytes() int64 {
	var n int64
	for _, o := range l.live {
		n += int64(20 + o.Len()*o.Dims()*8 + o.Len()*8)
	}
	return n
}
