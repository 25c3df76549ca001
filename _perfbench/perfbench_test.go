package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// deterministicCounts are the per-layer counts a traced phase must
// repeat exactly for a fixed seed. cluster.forwards is not one: the
// router's bounded-load placement spills a key off its home shard while
// the other connection's request is in flight there, so how a batch
// splits into sub-batches depends on timing.
var deterministicCounts = []string{
	"nex.epochs", "nex.thread_epochs", "nex.traps", "nex.syncs", "nex.irqs",
	"dsim.steps", "dsim.tasks", "dsim.dma_bytes",
	"checkpoint.hits", "checkpoint.misses", "checkpoint.hit_ratio", "checkpoint.bytes",
}

// tracedCounts sets up w with seed and returns one short traced phase's
// deterministic counts.
func tracedCounts(t *testing.T, w workload, seed uint64) map[string]float64 {
	t.Helper()
	inst, err := w.setup(seed, t.TempDir())
	if err != nil {
		t.Fatalf("%s set-up: %v", w.name, err)
	}
	defer inst.close()
	out, err := inst.measure(phase{index: 1, duration: 300 * time.Millisecond, tr: &tracer{}})
	if err != nil {
		t.Fatalf("%s measure: %v", w.name, err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed", w.name, out.failed, out.attempted)
	}
	counts := map[string]float64{}
	for _, k := range deterministicCounts {
		counts[k] = out.layers[k]
	}
	return counts
}

func TestCountsRepeatForFixedSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			a := tracedCounts(t, w, 7)
			b := tracedCounts(t, w, 7)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("counts differ across runs of seed 7:\n%v\n%v", a, b)
			}
			nonzero := false
			for _, v := range a {
				nonzero = nonzero || v != 0
			}
			if !nonzero {
				t.Errorf("no deterministic count observed: %v", a)
			}
		})
	}
}

func TestSeedReachesGenerators(t *testing.T) {
	if reflect.DeepEqual(nexdsimPool(1), nexdsimPool(2)) {
		t.Error("nexdsim spec pool does not depend on the seed")
	}
	if !reflect.DeepEqual(nexdsimPool(3), nexdsimPool(3)) {
		t.Error("nexdsim spec pool is not a function of the seed")
	}
	stream := func(seed uint64) []request {
		w := &serve{hot: hotSet(seed)}
		return w.schedule(rand.New(rand.NewPCG(seed, 1)), mainRate, time.Second)
	}
	if reflect.DeepEqual(stream(1), stream(2)) {
		t.Error("serve request stream does not depend on the seed")
	}
	if !reflect.DeepEqual(stream(3), stream(3)) {
		t.Error("serve request stream is not a function of the seed")
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric lists and the
// serve SLO in step with the code.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, code has %+v", kind, i, g, m)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var codeNames []string
	for _, w := range allWorkloads {
		codeNames = append(codeNames, w.name)
	}
	if !reflect.DeepEqual(names, codeNames) {
		t.Errorf("workloads: BENCHMARK.json %v, code %v", names, codeNames)
	}
	for _, w := range spec.Workloads {
		if w.Name != "serve" {
			continue
		}
		for _, want := range []string{
			fmt.Sprintf("p90 <= %dms", sloP90.Milliseconds()),
			fmt.Sprintf("%g/s", mainRate),
		} {
			if !strings.Contains(w.Why, want) {
				t.Errorf("serve rationale %q does not state %q", w.Why, want)
			}
		}
	}
}
