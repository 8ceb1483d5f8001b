package main

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/json"
	"sort"
	"time"
)

// Host-speed calibration. The host is shared, and for minutes at a time
// it runs this process 1.5-2.5 times slower than when it is quiet; no
// statistic taken inside a 15-second run removes that. So the measured
// work is interleaved with a fixed piece of ordinary Go work, none of it
// the repository's code, and each host time is scaled by calRef over the
// mean time of the calibrations that ran among it: the end-to-end times
// are reference-host times. A change to the simulator moves the work but
// never the calibration, so it shows in full; a host that slows down
// moves both, and mostly cancels.

// calRef defines the reference host: one on which the calibration takes
// calRef. It was chosen so that reference-host numbers read close to the
// raw numbers of the 2-vCPU "Intel Xeon Processor" guest the bounds were
// measured on, when that host is quiet.
const calRef = 13 * time.Millisecond

// calibration holds the fixed inputs of the calibration work: sorting,
// hashing, compression, a JSON round trip, and a pointer chase through
// 2 MB updating a map. They are built once, so a run allocates little.
type calibration struct {
	ints, sorted []int
	text         []byte
	chase        []uint32
	m            map[uint32]uint32
	out          bytes.Buffer
	fw           *flate.Writer
	recs         []calRecord
	sink         uint64
}

type calRecord struct {
	Name  string
	Value float64
	Tags  []string
}

func newCalibration() *calibration {
	c := &calibration{m: make(map[uint32]uint32, 1<<14)}
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	c.ints = make([]int, 20_000)
	c.sorted = make([]int, len(c.ints))
	for i := range c.ints {
		c.ints[i] = int(rnd() >> 1)
	}
	words := []string{"fetch", "issue", "stall", "cache", "miss", "fpu", "queue", "biu", "write", "buffer"}
	for len(c.text) < 1<<16 {
		c.text = append(c.text, words[rnd()%uint64(len(words))]...)
		c.text = append(c.text, ' ')
	}
	c.chase = make([]uint32, 1<<19)
	for i := range c.chase {
		c.chase[i] = uint32(i)
	}
	for i := len(c.chase) - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		c.chase[i], c.chase[j] = c.chase[j], c.chase[i]
	}
	for i := 0; i < 50; i++ {
		c.recs = append(c.recs, calRecord{Name: words[i%len(words)], Value: float64(rnd()%1000) / 7, Tags: words[:i%5]})
	}
	c.fw, _ = flate.NewWriter(&c.out, flate.DefaultCompression) // a valid level: cannot fail
	return c
}

// run does the calibration work once and returns its time.
func (c *calibration) run() time.Duration {
	t := time.Now()
	copy(c.sorted, c.ints)
	sort.Ints(c.sorted)
	sum := sha256.Sum256(c.text)
	c.out.Reset()
	c.fw.Reset(&c.out)
	c.fw.Write(c.text) //nolint:errcheck // writes to a bytes.Buffer
	c.fw.Close()       //nolint:errcheck // writes to a bytes.Buffer
	b, _ := json.Marshal(c.recs)
	var back []calRecord
	json.Unmarshal(b, &back) //nolint:errcheck // round trip of what was just marshalled
	p := uint32(0)
	for i := 0; i < 200_000; i++ {
		p = c.chase[p]
		c.m[p&0x3fff] += p
	}
	c.sink += uint64(sum[0]) + uint64(c.out.Len()) + uint64(len(back)) + uint64(p)
	return time.Since(t)
}

// factor is calRef over the mean of calibration times: the factor that
// turns host time measured among those calibrations into reference-host
// time.
func factor(cal []time.Duration) float64 {
	var sum time.Duration
	for _, d := range cal {
		sum += d
	}
	return float64(calRef) * float64(len(cal)) / float64(sum)
}
