package bsp

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"predict/internal/cluster"
	"predict/internal/graph"
)

// The reference the broadcast store is held to: pushRun is the message path
// this package had before it — a copy per edge, local sends applied as they
// are made, remote ones buffered per destination worker and merged at a
// deliver phase, sender by sender in worker order, with the send-side
// combining an exact combiner could opt into. The workers run one after
// another (the result never depended on their scheduling), and pricing,
// aggregates and the memory budget are left out: what is compared is what a
// program can see — which vertices compute, and each inbox, message for
// message — and the Table 1 counters.

// sendCtx is what a test kernel needs of a context; the engine's and the
// reference's both provide it.
type sendCtx[M any] interface {
	Superstep() int
	SendToNeighbors(m M)
	VoteToHalt()
}

// kernel is a vertex program written once against sendCtx, so the same code
// runs on the engine (as a Program, below) and on the reference.
type kernel[V, M any] struct {
	init    func(id VertexID) V
	compute func(ctx sendCtx[M], id VertexID, value *V, msgs []M)
	bytes   func(m M) int
}

func (k kernel[V, M]) Init(_ *graph.Graph, id VertexID) V { return k.init(id) }
func (k kernel[V, M]) Compute(ctx *Context[M], id VertexID, value *V, msgs []M) {
	k.compute(ctx, id, value, msgs)
}
func (k kernel[V, M]) MessageBytes(m M) int { return k.bytes(m) }

type pushEnvelope[M any] struct {
	dst VertexID
	m   M
}

// pushCtx is the old Context's message half.
type pushCtx[M any] struct {
	g         *graph.Graph
	part      []int32
	worker    int
	superstep int
	epoch     uint32
	current   VertexID
	load      cluster.WorkerLoad
	halted    []bool
	combiner  Combiner[M]
	bytes     func(m M) int

	outbox    [][]pushEnvelope[M]
	slot      []M
	slotEpoch []uint32
	touched   [][]VertexID

	nextOne  []M
	nextHas  []bool
	nextList [][]M
}

func (c *pushCtx[M]) Superstep() int { return c.superstep }
func (c *pushCtx[M]) VoteToHalt()    { c.halted[c.current] = true }

func (c *pushCtx[M]) SendToNeighbors(m M) {
	bytes := int64(c.bytes(m))
	for _, dst := range c.g.OutNeighbors(c.current) {
		c.send(dst, m, bytes)
	}
}

func (c *pushCtx[M]) send(dst VertexID, m M, bytes int64) {
	if int(c.part[dst]) == c.worker {
		c.load.LocalMessages++
		c.load.LocalMessageBytes += bytes
		if c.combiner != nil {
			if c.nextHas[dst] {
				c.nextOne[dst] = c.combiner(c.nextOne[dst], m)
			} else {
				c.nextOne[dst] = m
				c.nextHas[dst] = true
			}
		} else {
			c.nextList[dst] = append(c.nextList[dst], m)
		}
		return
	}
	w := int(c.part[dst])
	c.load.RemoteMessages++
	c.load.RemoteMessageBytes += bytes
	if c.slot != nil {
		if c.slotEpoch[dst] == c.epoch {
			c.slot[dst] = c.combiner(c.slot[dst], m)
		} else {
			c.slot[dst] = m
			c.slotEpoch[dst] = c.epoch
			c.touched[w] = append(c.touched[w], dst)
		}
		return
	}
	c.outbox[w] = append(c.outbox[w], pushEnvelope[M]{dst: dst, m: m})
}

// pushRun runs k over g on the reference path for at most maxSteps
// supersteps and returns the vertex values and every superstep's per-worker
// counters. exact selects the send-side combining of the old
// SetExactCombiner.
func pushRun[V, M any](g *graph.Graph, k kernel[V, M], workers, maxSteps int, combiner Combiner[M], exact bool) ([]V, [][]cluster.WorkerLoad) {
	n := g.NumVertices()
	W := clampWorkers(n, workers)
	part := make([]int32, n)
	workerVertCounts, _ := assignHash(g, W, part)
	workerVerts := make([][]VertexID, W)
	for v := 0; v < n; v++ {
		workerVerts[part[v]] = append(workerVerts[part[v]], VertexID(v))
	}

	useCombiner := combiner != nil
	var (
		curList, nextList [][]M
		curOne, nextOne   []M
		curHas, nextHas   []bool
	)
	if useCombiner {
		curOne, nextOne = make([]M, n), make([]M, n)
		curHas, nextHas = make([]bool, n), make([]bool, n)
	} else {
		curList, nextList = make([][]M, n), make([][]M, n)
	}
	values := make([]V, n)
	for v := range values {
		values[v] = k.init(VertexID(v))
	}
	halted := make([]bool, n)
	contexts := make([]*pushCtx[M], W)
	for w := range contexts {
		c := &pushCtx[M]{g: g, part: part, worker: w, halted: halted, combiner: combiner, bytes: k.bytes,
			nextOne: nextOne, nextHas: nextHas, nextList: nextList}
		if W > 1 {
			if useCombiner && exact {
				c.slot = make([]M, n)
				c.slotEpoch = make([]uint32, n)
				c.touched = make([][]VertexID, W)
			} else {
				c.outbox = make([][]pushEnvelope[M], W)
			}
		}
		contexts[w] = c
	}

	var profile [][]cluster.WorkerLoad
	for step := 0; step < maxSteps; step++ {
		for w, c := range contexts {
			c.superstep, c.epoch = step, uint32(step+1)
			c.load = cluster.WorkerLoad{TotalVertices: workerVertCounts[w]}
			for i := range c.touched {
				c.touched[i] = c.touched[i][:0]
			}
			for i := range c.outbox {
				c.outbox[i] = c.outbox[i][:0]
			}
		}
		for w, c := range contexts { // compute phase
			var scratch [1]M
			for _, v := range workerVerts[w] {
				var msgs []M
				if useCombiner {
					if curHas[v] {
						scratch[0] = curOne[v]
						msgs = scratch[:1]
					}
				} else {
					msgs = curList[v]
				}
				if halted[v] && len(msgs) == 0 {
					continue
				}
				if len(msgs) > 0 {
					halted[v] = false
				}
				c.load.ActiveVertices++
				c.current = v
				k.compute(c, v, &values[v], msgs)
			}
		}
		for w := 0; w < W && W > 1; w++ { // deliver phase
			for sw := 0; sw < W; sw++ {
				c := contexts[sw]
				if c.slot != nil {
					for _, dst := range c.touched[w] {
						if nextHas[dst] {
							nextOne[dst] = combiner(nextOne[dst], c.slot[dst])
						} else {
							nextOne[dst] = c.slot[dst]
							nextHas[dst] = true
						}
					}
					continue
				}
				for _, env := range c.outbox[w] {
					if useCombiner {
						if nextHas[env.dst] {
							nextOne[env.dst] = combiner(nextOne[env.dst], env.m)
						} else {
							nextOne[env.dst] = env.m
							nextHas[env.dst] = true
						}
					} else {
						nextList[env.dst] = append(nextList[env.dst], env.m)
					}
				}
			}
		}

		loads := make([]cluster.WorkerLoad, W)
		var sent int64
		for w, c := range contexts {
			loads[w] = c.load
			sent += c.load.Messages()
		}
		profile = append(profile, loads)

		if useCombiner {
			curOne, nextOne = nextOne, curOne
			curHas, nextHas = nextHas, curHas
			clear(nextHas)
		} else {
			curList, nextList = nextList, curList
			for i := range nextList {
				nextList[i] = nextList[i][:0]
			}
		}
		for _, c := range contexts {
			c.nextOne, c.nextHas, c.nextList = nextOne, nextHas, nextList
		}

		allHalted := sent == 0
		for _, h := range halted {
			allHalted = allHalted && h
		}
		if allHalted {
			break
		}
	}
	return values, profile
}

// engineRun runs k on the engine under the same superstep limit and returns
// what pushRun returns.
func engineRun[V, M any](t *testing.T, g *graph.Graph, k kernel[V, M], workers, maxSteps int, combiner Combiner[M]) ([]V, [][]cluster.WorkerLoad) {
	t.Helper()
	eng := NewEngine[V, M](g, k, testCfg(workers))
	if combiner != nil {
		eng.SetCombiner(combiner)
	}
	eng.SetHalt(haltAfter(maxSteps))
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	profile := make([][]cluster.WorkerLoad, len(res.Profile.Supersteps))
	for s, sp := range res.Profile.Supersteps {
		profile[s] = sp.Workers
	}
	return res.Values, profile
}

// sameAsPush fails unless the engine and the reference agree on every
// vertex value (for the recording kernels: every inbox) and every counter.
func sameAsPush[V, M any](t *testing.T, name string, g *graph.Graph, k kernel[V, M], maxSteps int, combiner Combiner[M], exact bool) {
	t.Helper()
	n := g.NumVertices()
	for _, workers := range []int{1, 2, 3, 7, 8, n + 1} {
		wantVals, wantLoads := pushRun(g, k, workers, maxSteps, combiner, exact)
		gotVals, gotLoads := engineRun(t, g, k, workers, maxSteps, combiner)
		if !reflect.DeepEqual(gotLoads, wantLoads) {
			t.Errorf("%s, W=%d: counters differ from the push reference:\n got %+v\nwant %+v", name, workers, gotLoads, wantLoads)
		}
		for v := range wantVals {
			if !reflect.DeepEqual(gotVals[v], wantVals[v]) {
				t.Errorf("%s, W=%d: vertex %d differs from the push reference:\n got %v\nwant %v", name, workers, v, gotVals[v], wantVals[v])
				break
			}
		}
	}
}

// referenceGraphs are random directed graphs and their symmetric closures.
// Every directed one has vertices nothing points at (the last never
// receives an edge) and vertices that point at nothing.
func referenceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	graphs := map[string]*graph.Graph{}
	for _, seed := range []uint64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 20 + rng.IntN(40)
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			for e := rng.IntN(7); e > 0; e-- {
				b.AddEdge(VertexID(v), VertexID(rng.IntN(n-1)))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs[fmt.Sprintf("directed/%d", seed)] = g
		graphs[fmt.Sprintf("symmetric/%d", seed)] = g.Undirected()
	}
	return graphs
}

// note is a recording kernel's message: who broadcast it, when, and which
// of the sender's broadcasts that superstep it was.
type note struct {
	from      VertexID
	step, seq int32
}

// recorder is a list kernel whose vertex value is its history: a marker per
// Compute call (from -1, the superstep, how many messages came) followed by
// the inbox verbatim. script decides, per vertex and superstep, how many
// times to broadcast and whether to vote to halt.
func recorder(script func(id VertexID, step int) (broadcasts int, halt bool)) kernel[[]note, note] {
	return kernel[[]note, note]{
		init: func(VertexID) []note { return nil },
		compute: func(ctx sendCtx[note], id VertexID, value *[]note, msgs []note) {
			step := ctx.Superstep()
			*value = append(*value, note{from: -1, step: int32(step), seq: int32(len(msgs))})
			*value = append(*value, msgs...)
			broadcasts, halt := script(id, step)
			for seq := 0; seq < broadcasts; seq++ {
				ctx.SendToNeighbors(note{from: id, step: int32(step), seq: int32(seq)})
			}
			if halt {
				ctx.VoteToHalt()
			}
		},
		bytes: func(m note) int { return 12 + int(m.seq) }, // variable-size: the byte counters see seq
	}
}

// TestInboxMatchesPushReference compares a list program's inboxes, message
// for message, and the set of vertices computed each superstep.
func TestInboxMatchesPushReference(t *testing.T) {
	scripts := map[string]func(id VertexID, step int) (int, bool){
		// Every vertex broadcasts twice in even supersteps: a sender's
		// several broadcasts must arrive adjacent, in send order.
		"twice": func(_ VertexID, step int) (int, bool) { return 2 - step%2, false },
		// A vertex broadcasts in superstep s and not in s+1 or s+2: when
		// its half of the double buffer comes round again at s+2 the stamp
		// in it is two supersteps old and must not be read.
		"every-third": func(id VertexID, step int) (int, bool) {
			if step%3 == int(id)%3 {
				return 1, false
			}
			return 0, false
		},
		// Vertices halt at random and are woken only by a message: one
		// with no broadcasting in-neighbour is not computed (it records no
		// marker) and is not counted active.
		"halting": func(id VertexID, step int) (int, bool) {
			h := uint64(id)*0x9e3779b97f4a7c15 + uint64(step)*0xbf58476d1ce4e5b9
			h ^= h >> 29
			return int(h % 3), h%5 < 3
		},
	}
	for gname, g := range referenceGraphs(t) {
		for sname, script := range scripts {
			sameAsPush(t, gname+"/"+sname, g, recorder(script), 9, nil, false)
		}
	}
}

// TestCombinerFoldMatchesPushReference compares combined values bit for bit:
// a float sum, whose rounding depends on the order and grouping of its
// applications, against the reference's receive-side combining, and an
// integer min against both of the reference's combining paths.
func TestCombinerFoldMatchesPushReference(t *testing.T) {
	sum := kernel[[]uint64, float64]{
		init: func(VertexID) []uint64 { return nil },
		compute: func(ctx sendCtx[float64], id VertexID, value *[]uint64, msgs []float64) {
			for _, m := range msgs {
				*value = append(*value, math.Float64bits(m))
			}
			if (int(id)+ctx.Superstep())%4 != 0 {
				ctx.SendToNeighbors(1 / float64(3+int(id)+7*ctx.Superstep()))
				ctx.SendToNeighbors(math.Pi * float64(id))
			}
		},
		bytes: func(float64) int { return 8 },
	}
	add := func(a, b float64) float64 { return a + b }
	for name, g := range referenceGraphs(t) {
		sameAsPush(t, name+"/sum", g, sum, 6, add, false)
	}

	minLabel := kernel[int, int]{
		init: func(id VertexID) int { return int(id) },
		compute: func(ctx sendCtx[int], _ VertexID, value *int, msgs []int) {
			changed := ctx.Superstep() == 0
			for _, m := range msgs {
				if m < *value {
					*value, changed = m, true
				}
			}
			if changed {
				ctx.SendToNeighbors(*value)
			}
			ctx.VoteToHalt()
		},
		bytes: func(int) int { return 8 },
	}
	least := func(a, b int) int { return min(a, b) }
	for name, g := range referenceGraphs(t) {
		sameAsPush(t, name+"/min", g, minLabel, 100, least, false)
		sameAsPush(t, name+"/min-send-side", g, minLabel, 100, least, true)
	}
}

// TestStampFieldsDoNotWrap holds the width of what a stamp records, and
// that its first message is the program's message type, inline. A vertex
// may broadcast more than 65,535 times in a superstep, which runs here; a
// worker index above 65,535 and a log offset above 2^32 are bounded only by
// the graph and would cost gigabytes to run, so their field types are held
// instead.
func TestStampFieldsDoNotWrap(t *testing.T) {
	const broadcasts = 70_000
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	flood := kernel[int, int]{
		init: func(VertexID) int { return 0 },
		compute: func(ctx sendCtx[int], id VertexID, value *int, msgs []int) {
			for i, m := range msgs {
				if m != i {
					*value = -1
					break
				}
				*value++
			}
			if ctx.Superstep() == 0 && id == 0 {
				for i := 0; i < broadcasts; i++ {
					ctx.SendToNeighbors(i)
				}
			}
			ctx.VoteToHalt()
		},
		bytes: func(int) int { return 8 },
	}
	got, loads := engineRun(t, g, flood, 2, 5, nil)
	if got[1] != broadcasts {
		t.Errorf("vertex 1 read %d of %d broadcasts in order (-1: out of order)", got[1], broadcasts)
	}
	if sent := loads[0][0].Messages() + loads[0][1].Messages(); sent != broadcasts {
		t.Errorf("superstep 0 counted %d messages, want %d", sent, broadcasts)
	}

	// first is the inline message, of the program's message type (int
	// here); the other four are the full-width fields.
	want := map[string]reflect.Kind{"first": reflect.Int, "off": reflect.Int, "epoch": reflect.Int, "count": reflect.Int32, "worker": reflect.Int32}
	typ := reflect.TypeOf(stamp[int]{})
	if typ.NumField() != len(want) {
		t.Errorf("stamp has %d fields, this test knows %d", typ.NumField(), len(want))
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != want[f.Name] {
			t.Errorf("stamp.%s is %s, want %s", f.Name, f.Type.Kind(), want[f.Name])
		}
	}
}
