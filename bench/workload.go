package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"pace"
	"pace/internal/serve"
)

// ingestBatches is the number of equal FASTA batches an ingest is split into.
const ingestBatches = 12

// workload is one seeded input and the call that is timed on it. The
// simulator runs at its defaults (mean length 550, error 0.02, skew 0.8,
// reverse-complement 0.5) and the clusterer at pace.DefaultOptions.
type workload struct {
	Name string
	N    int // ESTs generated
	// Genes, Paralogs and Divergence shape the simulated gene set.
	Genes      int
	Paralogs   int
	Divergence float64
	// Parallel runs the timed pace.Cluster on the real transport with one
	// master and min(nproc,4) slaves; otherwise it runs sequentially.
	Parallel bool
	// Ingest replaces the timed pace.Cluster with an HTTP ingest of the
	// first IngestN ESTs, and those ESTs are then the workload's whole input.
	Ingest bool
	// IngestN is the number of ESTs the incremental path sees: timed on an
	// Ingest workload, and in the traced pass's pace.* and serve.* probes on
	// every workload.
	IngestN int
}

// workloads is the benchmark's fixed set; BENCHMARK.json records why each
// one exists.
var workloads = []workload{
	{Name: "seq_deep", N: 2000, Genes: 100, IngestN: 600},
	{Name: "seq_sparse", N: 5000, Genes: 5000, IngestN: 600},
	{Name: "seq_paralog", N: 1600, Genes: 160, Paralogs: 160, Divergence: 0.08, IngestN: 600},
	{Name: "par_deep", N: 2000, Genes: 100, Parallel: true, IngestN: 600},
	{Name: "ingest_paced", N: 2000, Genes: 100, Ingest: true, IngestN: 1200},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// processors is the rank count of the parallel engine: one master, which
// spends the run blocked in Recv, and min(nproc,4) slaves.
func processors() int {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	return p + 1
}

func (w workload) options() pace.Options {
	opt := pace.DefaultOptions()
	if w.Parallel {
		opt.Processors = processors()
	}
	return opt
}

// input is what the program under test receives: the generated ESTs. Truth
// stays in the benchmark.
type input struct {
	recs  []pace.Record
	ests  []string
	truth []int
}

// ingestPart is the prefix of the input the incremental path sees.
func (w workload) ingestPart(in *input) *input {
	n := w.IngestN
	if n > len(in.recs) {
		n = len(in.recs)
	}
	return &input{recs: in.recs[:n], ests: in.ests[:n], truth: in.truth[:n]}
}

// generate makes the workload's input from the seed alone.
func (w workload) generate(seed int64) (*input, error) {
	sim, err := pace.Simulate(pace.SimOptions{
		NumESTs:           w.N,
		NumGenes:          w.Genes,
		ParalogFamilies:   w.Paralogs,
		ParalogDivergence: w.Divergence,
		Seed:              seed,
	})
	if err != nil {
		return nil, err
	}
	in := &input{ests: sim.ESTs, truth: sim.Truth, recs: make([]pace.Record, len(sim.ESTs))}
	for i, s := range sim.ESTs {
		in.recs[i] = pace.Record{ID: fmt.Sprintf("est%06d", i), Seq: s}
	}
	if w.Ingest {
		in = w.ingestPart(in)
	}
	return in, nil
}

// batches splits the records into ingestBatches contiguous batches.
func batches(recs []pace.Record) [][]pace.Record {
	out := make([][]pace.Record, ingestBatches)
	for b := range out {
		out[b] = recs[b*len(recs)/ingestBatches : (b+1)*len(recs)/ingestBatches]
	}
	return out
}

// ingestRig is a paced server on loopback with a durable data directory, one
// empty session, one client on one connection, and the encoded batch bodies.
type ingestRig struct {
	dir    string
	m      *serve.Manager
	ts     *httptest.Server
	client *http.Client
	url    string
	bodies [][]byte
}

const rigSession = "bench"

// newIngestRig is the ingest half of setup_s: temp dir, manager, listener,
// session creation and request bodies.
func newIngestRig(tmpRoot string, opt pace.Options, recs []pace.Record) (*ingestRig, error) {
	dir, err := os.MkdirTemp(tmpRoot, "ingest-")
	if err != nil {
		return nil, err
	}
	r := &ingestRig{dir: dir}
	r.m, err = serve.NewManager(serve.Config{Options: opt, DataDir: dir})
	if err != nil {
		r.close()
		return nil, err
	}
	r.ts = httptest.NewServer(serve.NewHandler(r.m))
	r.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	r.url = r.ts.URL + "/v1/sessions/" + rigSession + "/batches"
	for _, b := range batches(recs) {
		var buf bytes.Buffer
		if err := pace.WriteFASTA(&buf, b); err != nil {
			r.close()
			return nil, err
		}
		r.bodies = append(r.bodies, buf.Bytes())
	}
	status, body, err := r.post(r.ts.URL+"/v1/sessions", "application/json", []byte(`{"id":"`+rigSession+`"}`))
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("create session: status %d: %s", status, body)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *ingestRig) close() {
	if r.ts != nil {
		r.ts.Close()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	os.RemoveAll(r.dir)
}

// post sends one request and reads the whole response.
func (r *ingestRig) post(url, contentType string, body []byte) (int, []byte, error) {
	resp, err := r.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// ingestOut is one closed-loop ingest: the latency of each batch.
type ingestOut struct {
	latency []time.Duration
}

// ingest posts the batch bodies one after the other, each when the previous
// response has been read. A transport error, a non-2xx response or an answer
// that does not account for every EST sent so far counts as a failed
// operation and ends the ingest. Each request is a span under parent when
// rec is not nil.
func (r *ingestRig) ingest(c *checks, rec *recorder, parent int) (*ingestOut, error) {
	out := &ingestOut{}
	sent := 0
	for b := range r.bodies {
		id := rec.begin("POST batches", "serve", parent)
		t := time.Now()
		status, body, err := r.post(r.url, "text/x-fasta", r.bodies[b])
		out.latency = append(out.latency, time.Since(t))
		rec.end(id)
		if err == nil && status/100 != 2 {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		var res serve.BatchResult
		if err == nil {
			err = json.Unmarshal(body, &res)
		}
		sent += res.BatchESTs
		if err == nil && (res.BatchESTs == 0 || res.Info.NumESTs != sent) {
			err = fmt.Errorf("server holds %d ESTs after %d were sent", res.Info.NumESTs, sent)
		}
		if err != nil {
			c.fail("batch %d: %v", b+1, err)
			return nil, fmt.Errorf("batch %d: %w", b+1, err)
		}
		c.ok()
	}
	return out, nil
}

// labels reads the session's partition straight from the manager.
func (r *ingestRig) labels() ([]int, error) {
	_, labels, err := r.m.Labels(rigSession)
	return labels, err
}

// managerIngest feeds the batches to a Manager directly, with no HTTP.
func managerIngest(m *serve.Manager, id string, recs []pace.Record) error {
	for _, b := range batches(recs) {
		if _, err := m.Add(context.Background(), id, b); err != nil {
			return err
		}
	}
	return nil
}
