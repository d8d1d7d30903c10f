package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"fuzzyknn"
	"fuzzyknn/internal/dataset"
	"fuzzyknn/internal/server"
)

// Kind is a request kind of the benchmark's traffic.
type Kind int

const (
	AKNN Kind = iota
	RKNN
	Range
	Insert
	Delete
	Batch
	numKinds
)

var kindNames = [numKinds]string{"aknn", "rknn", "range", "insert", "delete", "batch"}

func (k Kind) String() string { return kindNames[k] }

// isWrite reports whether the kind mutates the index.
func (k Kind) isWrite() bool { return k >= Insert }

// Query parameters shared by every workload.
const (
	queryK      = 20
	queryAlpha  = 0.5
	rknnAlphaLo = 0.4
	rknnAlphaHi = 0.6
	rangeRadius = 2.0
	batchSize   = 32 // inserts, and as many deletes, per POST /objects:batch
	insertIDLo  = 10_000_000
)

// Workload is one traffic mix against one server configuration. Every
// field is fixed here, so the only input that varies between runs is the
// seed: it picks the generated objects and the request stream.
// Why each workload was chosen is recorded in BENCHMARK.json and
// WORKLOADS.md.
type Workload struct {
	Name string

	N      int // objects in the generated dataset
	Points int // points per object

	// Server configuration: Mode is "store" (-store, in-memory R-tree
	// built at start-up), "paged" (-store plus -pagefile) or "log" (-log).
	Mode            string
	Shards          int
	CacheMB         int // block cache of a paged index (-cache-mb)
	CheckpointEvery int // -checkpoint-every of a log index

	// Mix gives each kind's share of requests; InlineShare is the share of
	// queries that carry a generated query object instead of a query_id.
	Mix         [numKinds]float64
	InlineShare float64

	Rate      float64       // offered requests per second of the open loop
	Conns     int           // connections, at most the host's CPU count
	SatRate   float64       // generous bound on the closed loop's rate, to size its stream
	Setups    int           // server launches whose start-up time setup_s is the median of
	SatSecs   float64       // length of the closed-loop saturation phase
	WarmSecs  float64       // untimed reads before the open loop
	Samples   [numKinds]int // answers per kind compared with an oracle
	TraceReqs int           // requests the traced run replays per layer
	Pairs     int           // (query, neighbour) pairs timed by the kernel pass
}

var workloads = []*Workload{
	{
		Name:   "paper_aknn",
		N:      2000,
		Points: 1000,
		Mode:   "store", Shards: 1,
		Mix:  [numKinds]float64{AKNN: 1},
		Rate: 8, Conns: 2, SatRate: 80,
		Setups: 5, SatSecs: 4, WarmSecs: 1,
		Samples:   [numKinds]int{AKNN: 2},
		TraceReqs: 24, Pairs: 6,
	},
	{
		Name:   "small_mixed",
		N:      20000,
		Points: 64,
		Mode:   "paged", Shards: 2, CacheMB: 1,
		Mix:         [numKinds]float64{AKNN: 0.7, RKNN: 0.1, Range: 0.2},
		InlineShare: 0.5,
		Rate:        50, Conns: 2, SatRate: 1500,
		Setups: 25, SatSecs: 5, WarmSecs: 1,
		Samples:   [numKinds]int{AKNN: 1, RKNN: 1, Range: 1},
		TraceReqs: 300, Pairs: 200,
	},
	{
		Name:   "churn_log",
		N:      20000,
		Points: 64,
		Mode:   "log", Shards: 1, CheckpointEvery: 100,
		Mix:         [numKinds]float64{AKNN: 0.34, Insert: 0.31, Delete: 0.31, Batch: 0.04},
		InlineShare: 1,
		Rate:        50, Conns: 2, SatRate: 1500,
		Setups: 5, SatSecs: 5, WarmSecs: 1,
		Samples:   [numKinds]int{AKNN: 2},
		TraceReqs: 1000, Pairs: 200,
	},
}

func workloadByName(name string) (*Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// dataParams are the generator settings of the workload's objects: the
// paper's Table 2 synthetic defaults at the workload's size.
func (w *Workload) dataParams(seed uint64) dataset.Params {
	p := dataset.Default(dataset.Synthetic)
	p.N = w.N
	p.PointsPerObject = w.Points
	p.Seed = seed
	return p
}

// Request is one generated request: its wire form plus the decoded
// arguments the oracles and the traced run need.
type Request struct {
	Kind   Kind
	Method string
	Path   string
	Body   []byte

	QueryID uint64           // stored query object; 0 when Query is inline
	Query   *fuzzyknn.Object // inline query object

	Inserts []*fuzzyknn.Object
	Deletes []uint64
}

// Stream phases: each phase of a run draws from its own stream, so the
// open-loop requests do not depend on how many the saturation phase used.
const (
	phaseOpen uint64 = iota + 1
	phaseSaturation
	phaseWarmup
)

// stream generates a workload's requests deterministically from a seed.
// Deletes draw only from the initial population and inserts use fresh ids,
// so requests in flight on different connections never depend on each
// other and every write succeeds whatever order the server applies them.
type stream struct {
	w          *Workload
	rng        *rand.Rand
	qp, ip     dataset.Params
	nq, nextID uint64
	victims    []int // permutation of the initial ids left to delete
	pop        int
	readsOnly  bool
}

func newStream(w *Workload, seed, phase uint64) *stream {
	s := &stream{
		w:      w,
		rng:    rand.New(rand.NewPCG(seed, phase)),
		qp:     w.dataParams(seed ^ phase<<32 ^ 0x9E3779B97F4A7C15),
		ip:     w.dataParams(seed ^ phase<<32 ^ 0xC2B2AE3D27D4EB4F),
		nextID: insertIDLo + phase*1_000_000,
		pop:    w.N,
	}
	s.victims = s.rng.Perm(w.N)
	return s
}

// take returns the next n requests.
func (s *stream) take(n int) []*Request {
	reqs := make([]*Request, n)
	for i := range reqs {
		reqs[i] = s.next()
	}
	return reqs
}

func (s *stream) next() *Request {
	kind := s.pickKind()
	switch kind {
	case Insert:
		o := s.newObject()
		return &Request{Kind: Insert, Method: "POST", Path: "/objects", Inserts: []*fuzzyknn.Object{o},
			Body: mustJSON(server.InsertRequest{Object: objectJSON(o, true)})}
	case Delete:
		id := s.victim()
		return &Request{Kind: Delete, Method: "DELETE", Path: fmt.Sprintf("/objects/%d", id), Deletes: []uint64{id}}
	case Batch:
		r := &Request{Kind: Batch, Method: "POST", Path: "/objects:batch"}
		var body server.BatchMutateRequest
		for i := 0; i < batchSize; i++ {
			o := s.newObject()
			r.Inserts = append(r.Inserts, o)
			body.Objects = append(body.Objects, objectJSON(o, true))
			id := s.victim()
			r.Deletes = append(r.Deletes, id)
			body.DeleteIDs = append(body.DeleteIDs, id)
		}
		r.Body = mustJSON(body)
		return r
	}
	r := &Request{Kind: kind, Method: "POST", Path: "/" + kind.String()}
	var q *server.ObjectJSON
	var qid *uint64
	if s.rng.Float64() < s.w.InlineShare {
		o, err := dataset.GenerateQuery(s.qp, int(s.nq))
		if err != nil {
			panic(err) // the parameters are constants that validate
		}
		s.nq++
		r.Query, q = o, objectJSON(o, false)
	} else {
		r.QueryID = 1 + uint64(s.rng.IntN(s.w.N))
		qid = &r.QueryID
	}
	switch kind {
	case AKNN:
		r.Body = mustJSON(server.AKNNRequest{Query: q, QueryID: qid, K: queryK, Alpha: queryAlpha})
	case RKNN:
		r.Body = mustJSON(server.RKNNRequest{Query: q, QueryID: qid, K: queryK, AlphaStart: rknnAlphaLo, AlphaEnd: rknnAlphaHi})
	case Range:
		r.Body = mustJSON(server.RangeRequest{Query: q, QueryID: qid, Alpha: queryAlpha, Radius: rangeRadius})
	}
	return r
}

// pickKind draws a kind from the mix. A single write is an insert while
// the population is below its initial size and a delete otherwise, so the
// population stays near N.
func (s *stream) pickKind() Kind {
	u := s.rng.Float64()
	if s.readsOnly {
		u *= s.w.Mix[AKNN] + s.w.Mix[RKNN] + s.w.Mix[Range]
	}
	var kind Kind
	for kind = 0; kind < numKinds-1; kind++ {
		if u < s.w.Mix[kind] {
			break
		}
		u -= s.w.Mix[kind]
	}
	if kind == Insert || kind == Delete {
		if s.pop < s.w.N {
			kind = Insert
		} else {
			kind = Delete
		}
	}
	return kind
}

func (s *stream) newObject() *fuzzyknn.Object {
	g, err := dataset.GenerateQuery(s.ip, int(s.nextID))
	if err != nil {
		panic(err)
	}
	o, err := fuzzyknn.NewObject(s.nextID, g.WeightedPoints())
	if err != nil {
		panic(err) // a generated object is valid under any id
	}
	s.nextID++
	s.pop++
	return o
}

func (s *stream) victim() uint64 {
	if len(s.victims) == 0 {
		panic("perfbench: stream deleted every initial object; lower the write rate")
	}
	id := uint64(s.victims[0] + 1)
	s.victims = s.victims[1:]
	s.pop--
	return id
}

func objectJSON(o *fuzzyknn.Object, withID bool) *server.ObjectJSON {
	j := &server.ObjectJSON{Points: make([]server.PointJSON, o.Len())}
	if withID {
		j.ID = o.ID()
	}
	for i := range j.Points {
		p, mu := o.At(i)
		j.Points[i] = server.PointJSON{P: p, Mu: mu}
	}
	return j
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	return b
}
