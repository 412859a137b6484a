package main

import (
	"fmt"
	"time"

	"repro/internal/isa"
	"repro/internal/workload"
)

// seededSuite returns the eight Table 1 stand-ins at insts dynamic
// instructions, each reseeded from the benchmark seed. The same seed gives
// the same programs; the branch mixes, and so the calibration targets,
// stay those of Table 1.
func seededSuite(seed int64, insts uint64) []workload.Benchmark {
	suite := workload.Suite(insts)
	for i := range suite {
		suite[i].Spec.Seed += 1_000_003 * seed
	}
	return suite
}

// program is one generated benchmark program with its reference run
// warmed in isa's cache.
type program struct {
	bench workload.Benchmark
	prog  *isa.Program
}

// prepare generates the suite's programs and runs their reference runs,
// timing each call. With warm set the runs go through isa.TraceCached at
// the cap the pipeline asks for, so the timed phase finds them cached;
// otherwise through isa.Trace, the same work left uncached, so that
// repeated set-ups do not keep every earlier program alive in the cache.
func prepare(env *env, tag string, suite []workload.Benchmark, warm bool) ([]program, error) {
	out := make([]program, len(suite))
	for i, b := range suite {
		id := tag + "/" + b.Spec.Name
		t0 := time.Now()
		p, err := workload.Generate(b.Spec)
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", b.Spec.Name, err)
		}
		trace, refName := isa.Trace, "isa.Trace"
		if warm {
			trace, refName = isa.TraceCached, "isa.TraceCached"
		}
		if _, ref, err := trace(p, refCap); err != nil {
			return nil, fmt.Errorf("reference run %s: %w", b.Spec.Name, err)
		} else if !ref.Halted {
			return nil, fmt.Errorf("reference run %s: program did not halt", b.Spec.Name)
		}
		t2 := time.Now()
		env.generateMs = append(env.generateMs, ms(t1.Sub(t0)))
		env.referenceMs = append(env.referenceMs, ms(t2.Sub(t1)))
		env.tr.add(span{Name: "workload.Generate", ID: id, Start: t0, End: t1})
		env.tr.add(span{Name: refName, ID: id, Start: t1, End: t2})
		out[i] = program{bench: b, prog: p}
	}
	return out, nil
}

// refCap is the reference-run cap pipeline.NewWithArena uses for a
// configuration without MaxInsts.
const refCap = 1 << 26

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
