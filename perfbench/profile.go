package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	goruntime "runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// gcStats are the Go runtime's collector figures over a measured span.
type gcStats struct {
	cycles    uint64
	pauseS    float64
	cpuS      float64
	heapPeakB uint64
}

func (g gcStats) set(r *result) {
	r.metrics["gc.cycles"] = float64(g.cycles)
	r.metrics["gc.pause_s"] = g.pauseS
	r.metrics["gc.cpu_s"] = g.cpuS
	r.metrics["gc.heap_peak_bytes"] = float64(g.heapPeakB)
}

// profileHz is the CPU profile's sampling rate.
const profileHz = 500

// heapSampleEvery is how often the heap's peak is sampled.
const heapSampleEvery = 5 * time.Millisecond

// profiled runs fn under a CPU profile written to path and reports the
// collector's work meanwhile.
func profiled(path string, fn func() error) (gcStats, error) {
	f, err := os.Create(path)
	if err != nil {
		return gcStats{}, err
	}
	defer f.Close()
	// The default 100 Hz leaves layers of a few percent with a handful
	// of samples; the runtime notes the raised rate on standard error.
	goruntime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(f); err != nil {
		return gcStats{}, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			peak = max(peak, heapObjectBytes())
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	g0 := readGC()
	runErr := fn()
	g1 := readGC()
	close(stop)
	wg.Wait()
	pprof.StopCPUProfile()
	if runErr != nil {
		return gcStats{}, runErr
	}
	if err := f.Close(); err != nil {
		return gcStats{}, err
	}
	return gcStats{
		cycles:    g1.cycles - g0.cycles,
		pauseS:    float64(g1.pauseNs-g0.pauseNs) / 1e9,
		cpuS:      g1.cpuS - g0.cpuS,
		heapPeakB: peak,
	}, nil
}

// profileLayers buckets a CPU profile's flat time by package into the
// profile-only layers, using the installed `go tool pprof`. Every
// layer of profileModules gets an entry, 0 when it had no samples.
func profileLayers(path string) (map[string]float64, error) {
	// Every function is listed (pprof drops those under 0.5 % of the
	// total by default) in milliseconds (in seconds, anything under
	// 5 ms would read 0). Samples inside the benchmark's own response
	// check, which encodes each request once more, are left out.
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms",
		"-ignore=^main\\.digest$", path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(errb.String()))
	}
	return bucketTop(out.String())
}

// bucketTop parses `pprof -top -unit=ms` output (flat, flat%, sum%,
// cum, cum%, function) and sums flat seconds per profile layer.
func bucketTop(top string) (map[string]float64, error) {
	layers := map[string]float64{}
	for _, m := range profileModules {
		layers[m] = 0
	}
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(top))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flatMs, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: bad flat column in %q", sc.Text())
		}
		fn := strings.Join(fields[5:], " ")
		if l := profileLayer(fn); l != "" {
			layers[l] += flatMs / 1e3
		}
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return layers, sc.Err()
}

// profileLayer maps a function to its profile layer, "" for functions
// outside every profile layer (their time is in the seam metrics).
// README.md lists the mapping.
func profileLayer(fn string) string {
	pkg := funcPkg(fn)
	name := strings.TrimPrefix(fn, pkg)
	// The binary codec: the runtime package's codec and wire buffers,
	// and every message type's marshallers.
	if strings.Contains(name, "AppendWire") || strings.Contains(name, "DecodeWire") {
		return "codec"
	}
	switch pkg {
	case "syscall", "internal/poll", "net", "internal/runtime/syscall":
		return "tcp"
	case internalPrefix + "runtime":
		if strings.Contains(name, "Codec") || strings.Contains(name, "codec") || strings.Contains(name, "Wire") ||
			strings.Contains(name, "arint") || strings.Contains(name, "zigzag") {
			return "codec"
		}
		return ""
	case internalPrefix + "socknet":
		// Framing (frame.go) is part of the codec; the rest is the
		// transport's own connection and dispatch work.
		for _, framing := range []string{".appendFrame", ".decodeFrameBody", ".appendSubFrame", ".finishBatch", ".readBatch", ".forEachFrame"} {
			if strings.HasPrefix(name, framing) {
				return "codec"
			}
		}
		return "socknet"
	}
	if !strings.HasPrefix(pkg, internalPrefix) {
		return ""
	}
	mod := strings.TrimPrefix(pkg, internalPrefix)
	for _, m := range profileModules {
		if m == mod {
			return m
		}
	}
	return ""
}
