package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestAdaptiveDeterministicAcrossParallelism pins the fig-adaptive family
// to the deterministic-scheduler contract: the experiment — including the
// data-dependent second pass, whose oracle schedules are computed from the
// first pass's epoch-IPC series — must produce identical structured rows
// and identical rendered bytes under sequential and heavily-sharded
// execution.
func TestAdaptiveDeterministicAcrossParallelism(t *testing.T) {
	base := Options{
		TargetInsts: 60000,
		Benchmarks:  []string{"gcc", "m88ksim-phased"},
	}
	seq := base
	seq.Parallelism = 1
	par := base
	par.Parallelism = 8

	r1, err := Adaptive(seq)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Adaptive(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Errorf("fig-adaptive rows differ between -j1 and -j8:\n j1 %+v\n j8 %+v", r1, r8)
	}
	if r1.Render() != r8.Render() {
		t.Errorf("fig-adaptive rendered bytes differ between -j1 and -j8:\n j1:\n%s\n j8:\n%s",
			r1.Render(), r8.Render())
	}
}

// TestAdaptiveRowInvariants checks the family's structural guarantees on a
// small run: every simulated column is populated, best-static is the max
// of the statics, and the reported oracle is floored at best-static (the
// static schedules are members of the oracle's schedule space).
func TestAdaptiveRowInvariants(t *testing.T) {
	res, err := Adaptive(Options{
		TargetInsts: 40000,
		Benchmarks:  []string{"m88ksim-phased"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if len(row.StaticIPC) != len(res.CandidateNames) {
		t.Fatalf("%d static columns for %d candidates", len(row.StaticIPC), len(res.CandidateNames))
	}
	best := 0.0
	for i, ipc := range row.StaticIPC {
		if ipc <= 0 {
			t.Errorf("static %s IPC = %v, want > 0", res.CandidateNames[i], ipc)
		}
		if ipc > best {
			best = ipc
		}
	}
	if row.BestStatic != best {
		t.Errorf("BestStatic = %v, want max static %v", row.BestStatic, best)
	}
	if row.OracleIPC < row.BestStatic {
		t.Errorf("oracle %v below its best-static floor %v", row.OracleIPC, row.BestStatic)
	}
	if row.OnlineIPC <= 0 {
		t.Errorf("online IPC = %v, want > 0", row.OnlineIPC)
	}
}

// TestAdaptiveSmokeGolden is the adaptive-policy gate on the phased
// PVN-anomaly showcase (m88ksim-phased, 150k instructions):
//
//  1. the rendered fig-adaptive table is byte-identical to the committed
//     golden scripts/golden/adaptive_smoke_150k.txt, and byte-identical
//     between 1 and 4 worker shards;
//  2. on full-precision values, the online bandit strictly beats every
//     static candidate and reaches at least 90% of the per-epoch oracle.
//
// An intentional policy or workload change ships by regenerating the
// golden:
//
//	go run ./cmd/experiments -exp fig-adaptive -bench m88ksim-phased -insts 150000 | sed '1d' > scripts/golden/adaptive_smoke_150k.txt
func TestAdaptiveSmokeGolden(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "scripts", "golden", "adaptive_smoke_150k.txt"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(parallelism int) *AdaptiveResult {
		res, err := Adaptive(Options{TargetInsts: 150_000, Benchmarks: []string{"m88ksim-phased"}, Parallelism: parallelism})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run(4)
	// The CLI prints Render() followed by a newline.
	if got := res.Render() + "\n"; got != string(golden) {
		t.Fatalf("fig-adaptive table diverged from the golden:\n got:\n%s\nwant:\n%s", got, golden)
	}
	if seq := run(1).Render(); seq != res.Render() {
		t.Fatalf("fig-adaptive output differs between 4 and 1 shards:\n j4:\n%s\n j1:\n%s", res.Render(), seq)
	}
	for _, row := range res.Rows {
		for i, ipc := range row.StaticIPC {
			if row.OnlineIPC <= ipc {
				t.Errorf("%s: online IPC %.6f does not beat static/%s %.6f", row.Benchmark, row.OnlineIPC, res.CandidateNames[i], ipc)
			}
		}
		if row.OnlineIPC < 0.9*row.OracleIPC {
			t.Errorf("%s: online IPC %.6f below 90%% of oracle %.6f", row.Benchmark, row.OnlineIPC, row.OracleIPC)
		}
	}
}
