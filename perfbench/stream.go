package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/attack"
	"repro/internal/service"
	"repro/internal/workload"
)

// mix names the two serve workloads.
type mix int

const (
	hot  mix = iota // a fixed catalogue, every request a pipeline hit
	cold            // every request a distinct generated program
)

// Offered load, fixed per mix at about a quarter of what two engine
// workers sustain on a two-core host (hot: about 270 requests/s; cold:
// about 65). Latency then stays close to service time instead of
// amplifying host speed swings through queueing (see README.md).
var rate = map[mix]float64{hot: 70, cold: 15}

// hotVictimShare is the share of hot requests drawn from the attack
// corpus; the rest are mid-size generated programs.
const hotVictimShare = 0.7

func (m mix) String() string {
	if m == hot {
		return "serve-hot"
	}
	return "serve-cold"
}

// request is one submission with its expected verdict.
type request struct {
	Label    string        // case or profile name, scheme and input kind
	Source   string        // mini-C program
	Scheme   string        // vanilla, cpa, pythia or dfi
	Stdin    string        // program input
	Expect   string        // verdict, with the detecting fault kind
	Due      time.Duration // send time, relative to the start of the window
	Prebuilt bool          // cold: an earlier engine already built it
	body     []byte        // the submit request, encoded once up front
}

func (r *request) encode() error {
	b, err := json.Marshal(service.SubmitRequest{Source: r.Source, Scheme: r.Scheme, Stdin: r.Stdin})
	r.body = b
	return err
}

// programName is the name pythiad gives a submission in its pipeline;
// the compile cache key includes it, so a replay must use the same one.
func programName(src string) string {
	sum := sha256.Sum256([]byte(src))
	return "submit-" + hex.EncodeToString(sum[:])[:12]
}

// catalogue is the hot mix's fixed request set: every attack case's
// benign and malicious input under every scheme, and every program of
// the default generated suite under every scheme.
func catalogue() (victims, programs []request) {
	for _, c := range attack.Corpus() {
		// A case missing from the table expects "", so its requests fail.
		want := attackVerdicts[c.Name]
		for i, s := range schemes {
			victims = append(victims,
				request{Label: c.Name + "/" + s + "/benign", Source: c.Source, Scheme: s, Stdin: c.Benign, Expect: "clean"},
				request{Label: c.Name + "/" + s + "/malicious", Source: c.Source, Scheme: s, Stdin: c.Malicious, Expect: want[i]})
		}
	}
	for _, p := range workload.DefaultSuite().Profiles() {
		p := p
		src, in := workload.Generate(&p), workload.Stdin(&p)
		for _, s := range schemes {
			programs = append(programs, request{Label: p.Name + "/" + s, Source: src, Scheme: s, Stdin: in, Expect: "clean"})
		}
	}
	return victims, programs
}

// arrivals draws the arrival times of a Poisson process at perSec over
// the window, conditioned on its expected count: that many independent
// uniform times, sorted. Fixing the count keeps the amount of work, and
// the memory a cold run grows to, equal between seeds.
func arrivals(rng *rand.Rand, perSec float64, window time.Duration) []time.Duration {
	out := make([]time.Duration, int(math.Round(perSec*window.Seconds())))
	for i := range out {
		out[i] = time.Duration(rng.Int63n(int64(window)))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// deck deals n items from pool: every item once per round, each round
// in a fresh seeded order. Two seeds therefore send the same mix and
// differ only in order and arrival times.
func deck(rng *rand.Rand, pool, n int) []int {
	out := make([]int, 0, n+pool)
	for len(out) < n {
		out = append(out, rng.Perm(pool)...)
	}
	return out[:n]
}

// hotStream draws the hot mix's requests for a window from seed.
func hotStream(seed int64, window time.Duration) []request {
	rng := rand.New(rand.NewSource(seed))
	victims, programs := catalogue()
	due := arrivals(rng, rate[hot], window)
	nv := int(math.Round(hotVictimShare * float64(len(due))))
	var out []request
	for _, i := range deck(rng, len(victims), nv) {
		out = append(out, victims[i])
	}
	for _, i := range deck(rng, len(programs), len(due)-nv) {
		out = append(out, programs[i])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i, d := range due {
		out[i].Due = d
	}
	return out
}

// coldProgram is the i-th distinct program of seed's cold stream: the
// given suite grid point with perturbed knobs, one hot round so the VM
// does little, and a name that makes its source unique.
func coldProgram(rng *rand.Rand, p workload.Profile, seed int64, i int) (name, src, stdin string) {
	p.Name = fmt.Sprintf("cold.%d.%d", seed, i)
	p.HotRounds = 1
	p.ColdBranches += rng.Intn(21) - 10
	p.CopyICs += rng.Intn(9) - 4
	p.OuterTrip += rng.Intn(9) - 4
	return p.Name, workload.Generate(&p), workload.Stdin(&p)
}

// coldStream draws the cold mix's requests for a window from seed,
// followed by extra requests past the window (due at the window's end)
// for a traced replay. Requests deal (grid point, scheme) pairs evenly;
// one program in three is marked for pre-building.
func coldStream(seed int64, window time.Duration, extra int) []request {
	rng := rand.New(rand.NewSource(seed))
	due := arrivals(rng, rate[cold], window)
	for i := 0; i < extra; i++ {
		due = append(due, window)
	}
	grid := workload.DefaultSuite().Profiles()
	out := make([]request, len(due))
	for i, pair := range deck(rng, len(grid)*len(schemes), len(due)) {
		name, src, in := coldProgram(rng, grid[pair/len(schemes)], seed, i)
		s := schemes[pair%len(schemes)]
		out[i] = request{Label: name + "/" + s, Source: src, Scheme: s, Stdin: in, Expect: "clean", Due: due[i], Prebuilt: i%3 == 0}
	}
	return out
}

// streamDigest hashes everything a stream sends: sources, schemes,
// inputs and due times.
func streamDigest(reqs []request) string {
	h := sha256.New()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d\x00%s\x00%s\x00%s\x00%d\x00", len(r.Source), r.Source, r.Scheme, r.Stdin, r.Due)
	}
	return hex.EncodeToString(h.Sum(nil))
}
