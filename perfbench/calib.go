package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/format"
	"math/rand"
	"time"
)

// The host's speed is measured beside the work with a calibration unit:
// fixed general-purpose Go code, formatting a generated Go file and
// round-tripping a generated JSON document. Like the simulator it is
// branchy, pointer-rich code with a large instruction footprint that
// allocates as it goes. On a shared host a busy neighbour on the same
// physical core or cache slows every instruction, which CPU time does not
// remove; the unit slows with the simulator, so the ratio of the two does
// not. The unit does not depend on the repository's code, so a change to
// the program cannot move it.
//
// A reference second is the CPU time of refUnitsPerSec units: the
// end-to-end times are in reference seconds.
const refUnitsPerSec = 100

// refSeconds converts CPU seconds of work into reference seconds, by the
// CPU time of a unit run beside the work.
func refSeconds(cpuSecs, unitSecs float64) float64 {
	return cpuSecs / (unitSecs * refUnitsPerSec)
}

// calibration collects the CPU times of the units run in one phase.
type calibration struct{ secs []float64 }

// run runs one calibration unit and returns its CPU time.
func (c *calibration) run() time.Duration {
	c0 := cpuTime()
	if _, err := format.Source(calSrc); err != nil {
		panic(fmt.Sprintf("calibration: format: %v", err))
	}
	var doc calNode
	if err := json.Unmarshal(calDoc, &doc); err != nil {
		panic(fmt.Sprintf("calibration: unmarshal: %v", err))
	}
	if _, err := json.Marshal(&doc); err != nil {
		panic(fmt.Sprintf("calibration: marshal: %v", err))
	}
	d := cpuTime() - c0
	c.secs = append(c.secs, d.Seconds())
	return d
}

// unitMs is the median CPU time of one unit, in milliseconds.
func (c *calibration) unitMs() float64 { return 1000 * median(c.secs) }

// calSrc is the Go file the unit formats: 150 functions of ifs, loops and
// switches drawn from a fixed seed.
var calSrc = func() []byte {
	rng := rand.New(rand.NewSource(5))
	var b bytes.Buffer
	b.WriteString("package p\n")
	for f := 0; f < 150; f++ {
		fmt.Fprintf(&b, "func f%d(a, b int, s []int) int {\n", f)
		for k := 0; k < 6; k++ {
			switch rng.Intn(3) {
			case 0:
				fmt.Fprintf(&b, "if a > %d { a += b * %d } else { b -= a }\n", rng.Intn(100), rng.Intn(9))
			case 1:
				fmt.Fprintf(&b, "for i := range s { if s[i]%%%d == 0 { a ^= s[i] } }\n", 2+rng.Intn(7))
			default:
				fmt.Fprintf(&b, "switch a %% %d { case 0: b++; case 1: a = b << 2; default: s = append(s, a) }\n", 3+rng.Intn(5))
			}
		}
		b.WriteString("return a + b\n}\n")
	}
	return b.Bytes()
}()

// calNode is one node of the JSON document the unit round-trips.
type calNode struct {
	Name  string            `json:"name"`
	Value float64           `json:"value"`
	Tags  map[string]string `json:"tags"`
	Kids  []*calNode        `json:"kids"`
}

var calWords = []string{"fetch", "decode", "rename", "issue", "commit", "branch", "path", "kill", "fork", "eager"}

func calTree(rng *rand.Rand, depth int) *calNode {
	n := &calNode{Name: calWords[rng.Intn(len(calWords))], Value: rng.Float64(), Tags: map[string]string{}}
	for i := rng.Intn(3); i > 0; i-- {
		n.Tags[calWords[rng.Intn(len(calWords))]] = calWords[rng.Intn(len(calWords))]
	}
	if depth > 0 {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			n.Kids = append(n.Kids, calTree(rng, depth-1))
		}
	}
	return n
}

// calDoc is the JSON document the unit round-trips: a tree of depth 7
// drawn from a fixed seed.
var calDoc = func() []byte {
	b, err := json.Marshal(calTree(rand.New(rand.NewSource(4)), 7))
	if err != nil {
		panic(err)
	}
	return b
}()
