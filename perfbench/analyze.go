package main

// The analyze workload: one seeded trace file, analysed to api/v1 bytes
// by the resident path (LoadFile → Analyze → marshal, as
// sgx-perf-analyze -json does) and by the streaming fold (AnalyzeStream,
// as sgx-perf-analyze -stream does), one after the other in every pass.
// Decode, fold, assembly and marshal do all the work; the simulator and
// logger do none. Both paths must give the same bytes on every pass, and
// the report is checked against the generator's call counts and, for
// the pinned seeds, a fixed digest.

import (
	"crypto/sha256"
	"path/filepath"
	"runtime"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

// analyzeOps is the number of top-level ecalls in the analysed trace
// (about 2.45 events each).
const analyzeOps = 160_000

type analyzeWorkload struct {
	cfg    config
	path   string
	events int
	chunks int
	tally  callTally
}

func (w *analyzeWorkload) setup() error {
	g, err := newTraceGen(w.cfg.seed)
	if err != nil {
		return err
	}
	tr, err := g.batch(analyzeOps)
	if err != nil {
		return err
	}
	w.events = traceEvents(tr)
	w.tally = g.tally
	w.path = filepath.Join(w.cfg.work, "analyze.evc")
	if err := tr.SaveFile(w.path); err != nil {
		return err
	}
	w.chunks, err = chunkCount(w.path)
	return err
}

// chunkCount is the number of stored chunks, over every table, of the
// trace file at path.
func chunkCount(path string) (int, error) {
	sr, err := evstore.OpenStream(path)
	if err != nil {
		return 0, err
	}
	defer sr.Close()
	n := 0
	for _, name := range sr.TableNames() {
		n += len(sr.Chunks(name))
	}
	return n, nil
}

func (w *analyzeWorkload) close() {}

// residentDoc is the resident path: load the whole file, analyse it in
// memory, marshal the api/v1 report.
func residentDoc(tr *tracer, root int, path string) ([]byte, error) {
	loaded, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	if err := tr.call(root, "evstore.LoadFile", func() error { return loaded.LoadFile(path) }); err != nil {
		return nil, err
	}
	var rep *analyzer.Report
	err = tr.call(root, "analyzer.Analyze", func() error {
		a, err := analyzer.New(loaded, analyzer.Options{})
		if err != nil {
			return err
		}
		rep = a.Analyze()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return marshalReport(tr, root, rep)
}

// streamDoc is the streaming path: chunk cursors through the fold,
// nothing materialised.
func streamDoc(tr *tracer, root int, path string) ([]byte, error) {
	var rep *analyzer.Report
	err := tr.call(root, "analyzer.AnalyzeStream", func() error {
		st, err := events.OpenStreamTrace(path)
		if err != nil {
			return err
		}
		src, err := analyzer.NewStreamTraceSource(st)
		if err != nil {
			st.Close()
			return err
		}
		rep, err = analyzer.AnalyzeStream(src, analyzer.Options{})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return marshalReport(tr, root, rep)
}

func marshalReport(tr *tracer, root int, rep *analyzer.Report) ([]byte, error) {
	var doc []byte
	err := tr.call(root, "apiv1.Marshal", func() (err error) {
		doc, err = apiv1.Marshal(apiv1.FromReport(rep))
		return err
	})
	return doc, err
}

func (w *analyzeWorkload) run(tr *tracer) (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
	type path struct {
		root                           string
		doc                            func(*tracer, int, string) ([]byte, error)
		walls, stolen, heaps, untraced []float64
	}
	resident := &path{root: "analyze.resident", doc: residentDoc}
	streaming := &path{root: "analyze.stream", doc: streamDoc}
	var (
		digest [32]byte
		doc    []byte
	)
	minPasses := 3
	if tr != nil {
		minPasses = 6
	}
	// Pass 0 warms the page cache, the code and the heap and is not
	// timed; its report is the one every later pass must repeat.
	err := timedLoop(w.cfg.seconds, minPasses+1, func(i int) error {
		// The traced run alternates traced and untraced passes; the
		// difference is the tracing overhead.
		ptr := tr
		if i%2 == 1 || i == 0 {
			ptr = nil
		}
		for _, p := range []*path{resident, streaming} {
			// Each path starts from a collected heap, as a fresh
			// sgx-perf-analyze process would.
			runtime.GC()
			heap := startHeapPeak(heapInUse)
			c0 := readCPUStat()
			start := time.Now()
			root := ptr.begin(0, p.root)
			d, err := p.doc(ptr, root, w.path)
			ptr.end(root)
			wall := time.Since(start).Seconds()
			stolen := stolenShare(c0)
			peak := heap.finish()
			if err != nil {
				return err
			}
			o.attempted++
			sum := sha256.Sum256(d)
			switch {
			case doc == nil:
				digest, doc = sum, d
			case sum != digest && p == streaming:
				o.failf("pass %d: streaming api/v1 report %x differs from the resident one %x (%d vs %d bytes)",
					i, sum[:8], digest[:8], len(d), len(doc))
			case sum != digest:
				o.failf("pass %d: report digest %x differs from the first pass's %x", i, sum[:8], digest[:8])
			}
			switch {
			case i == 0:
			case tr != nil && ptr == nil:
				p.untraced = append(p.untraced, wall)
			default:
				p.walls = append(p.walls, wall)
				p.stolen = append(p.stolen, stolen)
				p.heaps = append(p.heaps, peak)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The report must agree with the generator and the pinned digest.
	o.attempted++
	if err := checkStats(doc, w.tally); err != nil {
		o.failf("%v", err)
	}
	checkPinned(o, "api/v1 report", pinnedAnalyze, w.cfg.seed, shortDigest(doc))

	o.printf("analyze: %d events, %d chunks, %d passes of each path, report %d bytes, resident == streaming bytes on every pass",
		w.events, w.chunks, len(resident.walls), len(doc))
	reportS, rn := unstolenTime(resident.walls, resident.stolen)
	streamS, sn := unstolenTime(streaming.walls, streaming.stolen)
	o.printf("report_s %.4f (resident; steal taken out, median of the %d least-stolen of %d passes; raw median %.4f s over all)",
		reportS, rn, len(resident.walls), median(resident.walls))
	o.printf("stream_report_s %.4f (streaming; steal taken out, median of the %d least-stolen of %d passes; raw median %.4f s over all)",
		streamS, sn, len(streaming.walls), median(streaming.walls))
	o.printf("peak_heap_mb %.2f resident, stream_peak_heap_mb %.2f streaming (medians of %d)",
		median(resident.heaps), median(streaming.heaps), len(streaming.heaps))
	o.e2e["latency_ms"] = reportS * 1e3
	o.e2e["throughput_per_s"] = float64(w.events) / streamS
	o.e2e["peak_heap_mb"] = median(resident.heaps)
	if tr == nil {
		return o, nil
	}
	rself := layerMedians(tr, resident.root)
	sself := layerMedians(tr, streaming.root)
	o.layers["evstore.chunks_read"] = float64(w.chunks)
	o.layers["evstore.decode_s"] = rself["evstore.LoadFile"]
	o.layers["analyzer.analyze_s"] = rself["analyzer.Analyze"]
	o.layers["analyzer.stream_s"] = sself["analyzer.AnalyzeStream"]
	o.layers["analyzer.events_per_s"] = float64(w.events) / rself["analyzer.Analyze"]
	o.layers["analyzer.stream_peak_heap_mb"] = median(streaming.heaps)
	o.layers["apiv1.marshal_s"] = rself["apiv1.Marshal"]
	o.layers["apiv1.report_bytes"] = float64(len(doc))
	checkAdds(o, tr, resident.root, resident.untraced)
	checkAdds(o, tr, streaming.root, streaming.untraced)
	return o, nil
}
