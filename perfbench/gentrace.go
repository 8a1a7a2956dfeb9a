package main

// The seeded trace generator: traces shaped like the logger's output —
// two enclaves with an embedded EDL interface, threads making ecalls
// with nested ocalls, sync sleep/wake on the ocalls and EPC paging in
// and out of call windows — already in the stream-sorted layout the
// streaming fold needs. A generator continues where its last batch
// ended, so later batches append to earlier ones as a live recording
// would.

import (
	"fmt"
	"sort"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// Generator parameters. They are fixed; the seed picks everything else.
const (
	genThreads  = 8
	genEnclaves = 2
)

var (
	genEcalls  = []string{"ecall_put", "ecall_get", "ecall_del", "ecall_tick", "ecall_seal", "ecall_flush"}
	genOcalls  = []string{"ocall_write", "ocall_read", "ocall_log"}
	genRegions = []string{"heap", "stack", "code"}
)

type traceGen struct {
	r      rng
	clock  [genThreads]int64
	id     int64
	iface  *edl.Interface
	ecall  map[string]int
	ocall  map[string]int
	header bool
	// tally is what every batch so far generated, for checking reports
	// against the generator rather than against another analysis.
	tally callTally
}

// callTally counts generated calls by "kind name" (as a report's stats
// name them) and, for ecalls, their asynchronous exits.
type callTally struct {
	calls map[string]int
	aex   map[string]int
}

func (t callTally) add(kind, name string, aex int) {
	t.calls[kind+" "+name]++
	t.aex[kind+" "+name] += aex
}

func newTraceGen(seed uint64) (*traceGen, error) {
	g := &traceGen{r: rng(seed), iface: edl.NewInterface(),
		ecall: make(map[string]int), ocall: make(map[string]int),
		tally: callTally{calls: make(map[string]int), aex: make(map[string]int)}}
	for _, n := range genEcalls {
		f, err := g.iface.AddEcall(n, true,
			edl.Param{Name: "buf", Dir: edl.DirIn, Size: "len"}, edl.Param{Name: "len"})
		if err != nil {
			return nil, err
		}
		g.ecall[n] = f.ID
	}
	for _, n := range genOcalls {
		f, err := g.iface.AddOcall(n, nil, edl.Param{Name: "n"})
		if err != nil {
			return nil, err
		}
		g.ocall[n] = f.ID
	}
	return g, nil
}

func (g *traceGen) nextID() events.EventID { g.id++; return events.EventID(g.id) }

// batch generates nOps top-level ecalls, all later than anything an
// earlier batch generated. The first batch also carries the trace
// header: metadata, enclave descriptors with the EDL, and threads.
func (g *traceGen) batch(nOps int) (*events.Trace, error) {
	tr, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	if !g.header {
		g.header = true
		tr.Meta.Insert(events.TraceMeta{Workload: "perfbench", FrequencyHz: 3.5e9, TransitionCycles: 13500})
		for e := 1; e <= genEnclaves; e++ {
			tr.Enclaves.Insert(events.EnclaveMeta{Enclave: sgx.EnclaveID(e),
				Name: fmt.Sprintf("enclave-%d", e), NumPages: 4096, EDL: g.iface.Format()})
		}
		for t := 0; t < genThreads; t++ {
			tr.Threads.Insert(events.ThreadEvent{Thread: sgx.ThreadID(t), Name: fmt.Sprintf("worker-%d", t)})
		}
	}
	// Start every thread after the latest event so far: a batch appended
	// to the trace keeps it stream-sorted.
	var latest int64
	for _, c := range g.clock {
		latest = max(latest, c)
	}
	for t := range g.clock {
		g.clock[t] = latest + 100
	}

	var (
		ecalls, ocalls []events.CallEvent
		paging         []events.PagingEvent
		syncs          []events.SyncEvent
	)
	r := &g.r
	for op := 0; op < nOps; op++ {
		thread := r.intn(genThreads)
		g.clock[thread] += int64(r.between(100, 4000))
		start := g.clock[thread]
		dur := int64(r.between(100, 3000))
		eid := g.nextID()
		enclave := sgx.EnclaveID(1 + r.intn(genEnclaves))
		name := genEcalls[r.intn(len(genEcalls))]
		aex := r.intn(3)
		ecalls = append(ecalls, events.CallEvent{
			ID: eid, Kind: events.KindEcall, Enclave: enclave, Thread: sgx.ThreadID(thread),
			CallID: g.ecall[name], Name: name,
			Start: vtime.Cycles(start), End: vtime.Cycles(start + dur),
			Parent: events.NoEvent, AEXCount: aex,
		})
		g.tally.add("ecall", name, aex)
		at := start + int64(r.intn(50))
		for k, nested := 0, r.intn(3); k < nested; k++ {
			oend := min(at+int64(r.between(20, 220)), start+dur)
			if oend <= at {
				break
			}
			oid := g.nextID()
			oname := genOcalls[r.intn(len(genOcalls))]
			ocalls = append(ocalls, events.CallEvent{
				ID: oid, Kind: events.KindOcall, Enclave: enclave, Thread: sgx.ThreadID(thread),
				CallID: g.ocall[oname], Name: oname,
				Start: vtime.Cycles(at), End: vtime.Cycles(oend), Parent: eid,
			})
			g.tally.add("ocall", oname, 0)
			at = oend + int64(r.intn(40))
			if r.intn(4) == 0 {
				kind, targets := events.SyncSleep, []sgx.ThreadID(nil)
				if r.intn(2) == 0 {
					kind, targets = events.SyncWake, []sgx.ThreadID{sgx.ThreadID(r.intn(genThreads))}
				}
				syncs = append(syncs, events.SyncEvent{ID: g.nextID(), Kind: kind,
					Thread: sgx.ThreadID(thread), Targets: targets, Time: vtime.Cycles(at), Call: oid})
			}
		}
		if r.intn(5) == 0 {
			kind := events.PageIn
			if r.intn(2) == 0 {
				kind = events.PageOut
			}
			when := start + dur/2
			if r.intn(2) == 0 {
				when = start + dur + 10
			}
			paging = append(paging, events.PagingEvent{ID: g.nextID(), Kind: kind, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Vaddr: r.next(), PageKind: genRegions[r.intn(len(genRegions))],
				Time: vtime.Cycles(when)})
		}
		g.clock[thread] = start + dur
	}
	byStart := func(s []events.CallEvent) {
		sort.Slice(s, func(i, j int) bool {
			if s[i].Start != s[j].Start {
				return s[i].Start < s[j].Start
			}
			return s[i].ID < s[j].ID
		})
	}
	byStart(ecalls)
	byStart(ocalls)
	sort.Slice(paging, func(i, j int) bool {
		if paging[i].Time != paging[j].Time {
			return paging[i].Time < paging[j].Time
		}
		return paging[i].ID < paging[j].ID
	})
	tr.Ecalls.BatchInsert(ecalls)
	tr.Ocalls.BatchInsert(ocalls)
	tr.Paging.BatchInsert(paging)
	tr.Syncs.BatchInsert(syncs)
	return tr, nil
}
