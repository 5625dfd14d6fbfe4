package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"flowercdn/internal/harness"
	"flowercdn/internal/proto"
	"flowercdn/internal/runtime"
)

// smallCell is a cell every registered protocol runs in well under a
// second.
func smallCell(protocol string, backend string) harness.Config {
	cfg := harness.QuickConfig()
	cfg.Protocol = harness.Protocol(protocol)
	cfg.Population = 150
	cfg.Duration = 2 * runtime.Hour
	cfg.Seed = 3
	cfg.Backend = backend
	return cfg
}

// The timed and traced backends must run exactly the events the stock
// sim backend runs, for every registered protocol.
func TestSeamKeepsFingerprint(t *testing.T) {
	for _, name := range proto.Names() {
		t.Run(name, func(t *testing.T) {
			stock, err := harness.Run(smallCell(name, "sim"))
			if err != nil {
				t.Fatal(err)
			}
			timed, _, err := runRound(smallCell(name, backendTimed))
			if err != nil {
				t.Fatal(err)
			}
			tcfg := smallCell(name, backendTraced)
			traced, p, err := runRound(tcfg)
			if err != nil {
				t.Fatal(err)
			}
			if timed.res.Fingerprint != stock.Fingerprint || traced.res.Fingerprint != stock.Fingerprint {
				t.Fatalf("fingerprints: stock %016x, timed %016x, traced %016x",
					stock.Fingerprint, timed.res.Fingerprint, traced.res.Fingerprint)
			}
			if timed.res.EventsProcessed != stock.EventsProcessed {
				t.Fatalf("timed backend ran %d events, stock %d", timed.res.EventsProcessed, stock.EventsProcessed)
			}
			r := newResult()
			checkTransportCounts(r, p.traced.tr, &p.traced.final, traced.res.NetStats)
			checkSpans(r, &p.traced.final, p.traced.loopNs)
			if len(r.problems) > 0 {
				t.Fatal(r.problems)
			}
		})
	}
}

// The span check rejects a span left open and spans longer than the
// loop.
func TestCheckSpansRejectsLeaks(t *testing.T) {
	s := &spans{}
	s.begin(layerSimnet, kindNet)
	s.begin(layerSimnet, kindTimer)
	s.end()
	r := newResult()
	checkSpans(r, s, 1<<40)
	if len(r.problems) != 1 {
		t.Fatalf("open span: problems %v, want one", r.problems)
	}
	s.end()
	r = newResult()
	checkSpans(r, s, 1<<40)
	if len(r.problems) != 0 {
		t.Fatalf("closed spans: problems %v", r.problems)
	}
	checkSpans(r, s, s.topNs-1)
	if len(r.problems) != 1 {
		t.Fatalf("spans outlasting the loop: problems %v, want one", r.problems)
	}
}

func TestRPCCheckerRejectsTamperedResponse(t *testing.T) {
	codec, err := runtime.NewCodec(rpcCodec)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := makeRequests(7, codec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != len(rpcKinds)*rpcPerKind {
		t.Fatalf("%d requests, want %d", len(cases), len(rpcKinds)*rpcPerKind)
	}
	for i, c := range cases[:len(rpcKinds)] {
		// What the server sees is the request after a trip through the
		// codec; its digest must be the one the caller computed.
		b, err := codec.AppendMessage(nil, c.req)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := codec.DecodeMessage(b)
		if err != nil {
			t.Fatal(err)
		}
		d, err := digest(codec, dec)
		if err != nil {
			t.Fatal(err)
		}
		if !rpcAnswerOK(rpcAnswer(d), c.want) {
			t.Fatalf("%s: the server's answer is rejected", rpcKinds[i])
		}
		if rpcAnswerOK(rpcAnswer(d^1), c.want) {
			t.Fatalf("%s: an answer with a flipped bit is accepted", rpcKinds[i])
		}
		if rpcAnswerOK(rpcAnswer(cases[(i+1)%len(cases)].want), c.want) {
			t.Fatalf("%s: another request's answer is accepted", rpcKinds[i])
		}
		if rpcAnswerOK(nil, c.want) || rpcAnswerOK(c.req, c.want) {
			t.Fatalf("%s: a non-answer is accepted", rpcKinds[i])
		}
	}
	// Same seed, same inputs.
	again, err := makeRequests(7, codec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cases {
		if cases[i].want != again[i].want {
			t.Fatalf("request %d differs between two builds from one seed", i)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(t *testing.T) (e2e, layers []declaredMetric, workloads []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []declaredMetric        `json:"end_to_end"`
		PerLayer  []declaredMetric        `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	return decl.EndToEnd, decl.PerLayer, workloads
}

func checkDeclared(t *testing.T, what string, decl []declaredMetric, code []metricDecl) {
	t.Helper()
	if len(decl) != len(code) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the command prints %d", what, len(decl), len(code))
	}
	byName := map[string]declaredMetric{}
	for _, d := range decl {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("%s: bad metric name %q", what, d.Name)
		}
		if _, dup := byName[d.Name]; dup {
			t.Errorf("%s: %s declared twice", what, d.Name)
		}
		byName[d.Name] = d
	}
	for _, m := range code {
		d, ok := byName[m.name]
		switch {
		case !ok:
			t.Errorf("%s: %s is printed but not declared", what, m.name)
		case d.Unit != m.unit:
			t.Errorf("%s: %s printed in %s, declared in %s", what, m.name, m.unit, d.Unit)
		}
	}
}

func TestDeclarationMatchesCommand(t *testing.T) {
	e2e, layers, workloadNames := readDeclaration(t)
	checkDeclared(t, "end_to_end", e2e, endToEndMetrics)
	checkDeclared(t, "per_layer", layers, perLayerMetrics())
	for _, d := range e2e {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	var code []string
	for _, w := range workloads() {
		code = append(code, w.name)
	}
	sort.Strings(code)
	sort.Strings(workloadNames)
	if strings.Join(code, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("declared workloads %v, the command has %v", workloadNames, code)
	}
}

// printed runs a workload and returns the JSON verdict it prints.
func printed(t *testing.T, run func(options) (*result, error), traced bool) map[string]any {
	t.Helper()
	res, err := run(options{seed: 2, seconds: 1, traced: traced, workDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.write(&out, traced); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatal(err)
	}
	if v["correct"] != true {
		t.Fatalf("run is not correct:\n%s", out.String())
	}
	return v
}

// Every declared metric is printed, by both kinds of workload, in
// both kinds of run, and nothing else is.
func TestEveryWorkloadKindPrintsTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small cell and a socket loop")
	}
	small := simWorkload{name: "small", protocol: harness.ProtocolFlower, population: 300, horizon: 2 * runtime.Hour, cells: 2, aliveBand: [2]float64{0.5, 1.5}}
	for _, w := range []struct {
		name string
		run  func(options) (*result, error)
	}{
		{"sim", func(o options) (*result, error) { return runSim(small, o) }},
		{"socket-rpc", runSocketRPC},
	} {
		for _, traced := range []bool{false, true} {
			v := printed(t, w.run, traced)
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics()
			}
			got := v["metrics"].(map[string]any)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(got), len(want))
			}
			for _, m := range want {
				if _, ok := got[m.name]; !ok {
					t.Errorf("%s traced=%v: %s not printed", w.name, traced, m.name)
				}
			}
		}
	}
}

func TestBucketTop(t *testing.T) {
	top := `File: perfbench
Type: cpu
Showing nodes accounting for 3100ms, 100% of 3100ms total
      flat  flat%   sum%        cum   cum%
    1000ms 32.26% 32.26%     1200ms 38.71%  flowercdn/internal/sim.(*Engine).Run
     500ms 16.13% 48.39%      500ms 16.13%  flowercdn/internal/content.(*Store).Add
     400ms 12.90% 61.29%      400ms 12.90%  flowercdn/internal/bloom.(*Filter).Add (inline)
     300ms  9.68% 70.97%      300ms  9.68%  flowercdn/internal/gossip.shuffleReq.AppendWire
     200ms  6.45% 77.42%      200ms  6.45%  flowercdn/internal/runtime.(*WireWriter).Uvarint
     198ms  6.39% 83.81%      198ms  6.39%  flowercdn/internal/socknet.forEachFrame
     200ms  6.45% 90.26%      200ms  6.45%  flowercdn/internal/socknet.(*Transport).writeLoop
     300ms  9.68% 99.94%      300ms  9.68%  syscall.Syscall6
       2ms  0.06%   100%        2ms  0.06%  flowercdn/internal/rnd.(*RNG).Uint64
         0     0%   100%        2ms  0.06%  flowercdn/internal/metrics.percentile
`
	got, err := bucketTop(top)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"content": 0.5, "bloom": 0.4, "codec": 0.698, "socknet": 0.2, "tcp": 0.3, "rnd": 0.002}
	for _, m := range profileModules {
		if d := got[m] - want[m]; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s: %g s, want %g s", m, got[m], want[m])
		}
	}
	if _, err := bucketTop("no table here"); err == nil {
		t.Error("output without a table was accepted")
	}
}
