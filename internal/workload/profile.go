// Package workload generates the synthetic benchmark programs the
// evaluation harness runs in place of SPEC CPU2017 and nginx.
//
// Each Profile fixes the *static structure* the paper reports for its
// benchmark — how many conditional branches, how many input-channel call
// sites of each category, how pointer-heavy the branch slices are, how
// hot the instrumented code is — and the generator emits a deterministic
// MiniC program with that structure. Everything downstream (slices,
// vulnerable sets, PA instruction counts, cycles, overheads, protection
// percentages) is *measured* by the pipeline, not scripted.
package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// Profile describes one benchmark's generated structure.
type Profile struct {
	Name string
	Lang string // "c" or "c++" — c++ profiles lean on structs + pointers

	// Hot code shape.
	Workers    int // hot worker functions
	HotRounds  int // times main invokes each worker
	OuterTrip  int // outer loop trips per invocation
	InnerTrip  int // branch-free inner loop trips (uninstrumented base load)
	MediumTrip int // trips of the branch-feeding (instrumented) loop

	// Branch population per worker.
	TaintedScalarBr int // tainted branches on plain scalars (DFI-friendly)
	TaintedPtrBr    int // tainted branches via non-const indexing (DFI-hostile)
	TaintedStructBr int // tainted branches via struct fields (DFI-hostile)
	UntaintedBr     int // branches never touched by input channels
	DeepChainBr     int // branches fed through a call chain deeper than
	// Pythia's interprocedural horizon (Pythia misses these; ground truth
	// still counts them as attackable)

	// ICInLoop places this many move/copy channel calls inside each hot
	// outer-loop iteration — the paper's "very high loop in the call
	// chain, so the PA instructions added will be repeatedly executed"
	// behaviour. This is the main driver of Pythia's overhead (canary
	// re-randomization + check per channel use).
	ICInLoop int

	// Heap behaviour.
	HeapVulnBufs int // per worker: IC-written heap buffers (→ isolated section)
	HeapColdBufs int // per worker: heap buffers untouched by channels

	// Static input-channel sites in cold code (the Fig. 5b distribution).
	PrintICs int
	CopyICs  int
	ScanICs  int
	GetICs   int
	PutICs   int
	MapICs   int

	// ColdBranches pads the static conditional-branch population without
	// affecting the dynamic profile (cold code runs once). Of these,
	// ColdHostileBr branch on mmap-derived data (pointer arithmetic in
	// the slice: DFI-unprotectable) and ColdDeepBr branch on values that
	// reach their channel only through the deep call chain (beyond
	// Pythia's interprocedural horizon: missed by both techniques).
	ColdBranches  int
	ColdHostileBr int
	ColdDeepBr    int

	// DFIFriendly restricts the hot code to constant-index addressing so
	// DFI's slicer can follow everything (the paper: lbm is the only
	// benchmark DFI fully secures).
	DFIFriendly bool

	// Wrappers generates ngx_-style user-defined channel wrappers.
	Wrappers bool
}

// Profiles returns the 16 evaluated benchmarks. The knobs are calibrated
// against the per-benchmark characteristics the paper reports: gcc and
// parest have the most vulnerable variables and the worst CPA overheads,
// lbm/mcf/namd are compute-bound with few channels, xalancbmk and parest
// (C++) are struct/pointer heavy, nginx is channel-dominated.
func Profiles() []Profile {
	return []Profile{
		{
			Name: "500.perlbench_r", Lang: "c",
			Workers: 3, HotRounds: 24, OuterTrip: 20, InnerTrip: 28, MediumTrip: 63, ICInLoop: 3,
			TaintedScalarBr: 2, TaintedPtrBr: 3, TaintedStructBr: 0, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 66, CopyICs: 86, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 120, ColdHostileBr: 0, ColdDeepBr: 12,
		},
		{
			Name: "502.gcc_r", Lang: "c",
			Workers: 4, HotRounds: 22, OuterTrip: 22, InnerTrip: 20, MediumTrip: 88, ICInLoop: 4,
			TaintedScalarBr: 3, TaintedPtrBr: 3, TaintedStructBr: 1, UntaintedBr: 8, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 2,
			PrintICs: 104, CopyICs: 150, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 200, ColdHostileBr: 0, ColdDeepBr: 31,
		},
		{
			Name: "505.mcf_r", Lang: "c",
			Workers: 2, HotRounds: 20, OuterTrip: 22, InnerTrip: 60, MediumTrip: 21, ICInLoop: 1,
			TaintedScalarBr: 1, TaintedPtrBr: 0, TaintedStructBr: 0, UntaintedBr: 10, DeepChainBr: 0,
			HeapVulnBufs: 0, HeapColdBufs: 2,
			PrintICs: 14, CopyICs: 12, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 0,
			ColdBranches: 40, ColdHostileBr: 0, ColdDeepBr: 0,
		},
		{
			Name: "508.namd_r", Lang: "c++",
			Workers: 2, HotRounds: 20, OuterTrip: 24, InnerTrip: 56, MediumTrip: 13, ICInLoop: 1,
			TaintedScalarBr: 1, TaintedPtrBr: 1, TaintedStructBr: 0, UntaintedBr: 11, DeepChainBr: 0,
			HeapVulnBufs: 0, HeapColdBufs: 1,
			PrintICs: 18, CopyICs: 18, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 0,
			ColdBranches: 60, ColdHostileBr: 0, ColdDeepBr: 3,
		},
		{
			Name: "510.parest_r", Lang: "c++",
			Workers: 4, HotRounds: 20, OuterTrip: 22, InnerTrip: 22, MediumTrip: 50, ICInLoop: 3,
			TaintedScalarBr: 1, TaintedPtrBr: 3, TaintedStructBr: 3, UntaintedBr: 8, DeepChainBr: 1,
			HeapVulnBufs: 2, HeapColdBufs: 1,
			PrintICs: 114, CopyICs: 160, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 220, ColdHostileBr: 0, ColdDeepBr: 18,
		},
		{
			Name: "511.povray_r", Lang: "c++",
			Workers: 3, HotRounds: 20, OuterTrip: 20, InnerTrip: 30, MediumTrip: 33, ICInLoop: 2,
			TaintedScalarBr: 1, TaintedPtrBr: 2, TaintedStructBr: 2, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 59, CopyICs: 66, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 110, ColdHostileBr: 0, ColdDeepBr: 12,
		},
		{
			Name: "519.lbm_r", Lang: "c",
			Workers: 1, HotRounds: 18, OuterTrip: 24, InnerTrip: 70, MediumTrip: 13, ICInLoop: 0,
			TaintedScalarBr: 1, TaintedPtrBr: 0, TaintedStructBr: 0, UntaintedBr: 4, DeepChainBr: 0,
			HeapVulnBufs: 0, HeapColdBufs: 1,
			PrintICs: 8, CopyICs: 5, ScanICs: 1, GetICs: 0, PutICs: 0, MapICs: 0,
			ColdBranches: 8, ColdHostileBr: 0, ColdDeepBr: 0, DFIFriendly: true,
		},
		{
			Name: "520.omnetpp_r", Lang: "c++",
			Workers: 3, HotRounds: 20, OuterTrip: 20, InnerTrip: 26, MediumTrip: 48, ICInLoop: 2,
			TaintedScalarBr: 2, TaintedPtrBr: 2, TaintedStructBr: 2, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 2,
			PrintICs: 50, CopyICs: 64, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 130, ColdHostileBr: 0, ColdDeepBr: 14,
		},
		{
			Name: "523.xalancbmk_r", Lang: "c++",
			Workers: 3, HotRounds: 22, OuterTrip: 20, InnerTrip: 22, MediumTrip: 48, ICInLoop: 3,
			TaintedScalarBr: 1, TaintedPtrBr: 3, TaintedStructBr: 3, UntaintedBr: 8, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 72, CopyICs: 96, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 160, ColdHostileBr: 0, ColdDeepBr: 23,
		},
		{
			Name: "525.x264_r", Lang: "c",
			Workers: 2, HotRounds: 20, OuterTrip: 22, InnerTrip: 44, MediumTrip: 21, ICInLoop: 2,
			TaintedScalarBr: 2, TaintedPtrBr: 0, TaintedStructBr: 0, UntaintedBr: 10, DeepChainBr: 0,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 24, CopyICs: 40, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 90, ColdHostileBr: 0, ColdDeepBr: 0,
		},
		{
			Name: "531.deepsjeng_r", Lang: "c++",
			Workers: 2, HotRounds: 20, OuterTrip: 20, InnerTrip: 36, MediumTrip: 37, ICInLoop: 2,
			TaintedScalarBr: 2, TaintedPtrBr: 1, TaintedStructBr: 1, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 0, HeapColdBufs: 1,
			PrintICs: 27, CopyICs: 30, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 0,
			ColdBranches: 80, ColdHostileBr: 0, ColdDeepBr: 6,
		},
		{
			Name: "541.leela_r", Lang: "c++",
			Workers: 2, HotRounds: 20, OuterTrip: 20, InnerTrip: 34, MediumTrip: 32, ICInLoop: 2,
			TaintedScalarBr: 1, TaintedPtrBr: 2, TaintedStructBr: 1, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 24, CopyICs: 28, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 0,
			ColdBranches: 70, ColdHostileBr: 0, ColdDeepBr: 6,
		},
		{
			Name: "544.nab_r", Lang: "c",
			Workers: 2, HotRounds: 20, OuterTrip: 22, InnerTrip: 46, MediumTrip: 23, ICInLoop: 1,
			TaintedScalarBr: 1, TaintedPtrBr: 1, TaintedStructBr: 0, UntaintedBr: 10, DeepChainBr: 0,
			HeapVulnBufs: 0, HeapColdBufs: 1,
			PrintICs: 18, CopyICs: 20, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 50, ColdHostileBr: 0, ColdDeepBr: 4,
		},
		{
			Name: "557.xz_r", Lang: "c",
			Workers: 2, HotRounds: 20, OuterTrip: 20, InnerTrip: 32, MediumTrip: 35, ICInLoop: 2,
			TaintedScalarBr: 2, TaintedPtrBr: 1, TaintedStructBr: 0, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 21, CopyICs: 36, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 70, ColdHostileBr: 3, ColdDeepBr: 6,
		},
		{
			Name: "526.blender_r", Lang: "c++",
			Workers: 3, HotRounds: 20, OuterTrip: 20, InnerTrip: 28, MediumTrip: 32, ICInLoop: 2,
			TaintedScalarBr: 2, TaintedPtrBr: 2, TaintedStructBr: 1, UntaintedBr: 9, DeepChainBr: 1,
			HeapVulnBufs: 1, HeapColdBufs: 1,
			PrintICs: 56, CopyICs: 70, ScanICs: 1, GetICs: 1, PutICs: 1, MapICs: 1,
			ColdBranches: 120, ColdHostileBr: 0, ColdDeepBr: 12,
		},
		NginxProfile(),
	}
}

// NginxProfile models the web server: channel-dominated request
// processing with ngx_-style wrapper channels and a high-trip serving
// loop (the paper: 720 channels, 712 move/copy, "a very high loop in the
// call chain, so the PA instructions added will be repeatedly executed").
func NginxProfile() Profile {
	return Profile{
		Name: "nginx", Lang: "c",
		Workers: 2, HotRounds: 40, OuterTrip: 16, InnerTrip: 10, MediumTrip: 19, ICInLoop: 2,
		TaintedScalarBr: 2, TaintedPtrBr: 2, TaintedStructBr: 0, UntaintedBr: 5, DeepChainBr: 1,
		HeapVulnBufs: 1, HeapColdBufs: 1,
		PrintICs: 8, CopyICs: 66, ScanICs: 0, GetICs: 1, PutICs: 1, MapICs: 0,
		ColdBranches: 60, ColdHostileBr: 0, ColdDeepBr: 3,
		Wrappers: true,
	}
}

// canonical renders every generator knob as an explicit key=value list.
// This is the fingerprint's preimage, so it must enumerate each field
// by hand: deriving it from fmt (%#v and friends) would silently embed
// pointer addresses or Go-version-dependent formatting the moment
// Profile gains a non-scalar field — unacceptable for a key that now
// persists across processes in the artifact store. The reflection guard
// in profile_test.go fails if a field is added without extending this
// list.
func (p *Profile) canonical() string {
	var b strings.Builder
	f := func(name string, v any) { fmt.Fprintf(&b, "%s=%v;", name, v) }
	f("Name", p.Name)
	f("Lang", p.Lang)
	f("Workers", p.Workers)
	f("HotRounds", p.HotRounds)
	f("OuterTrip", p.OuterTrip)
	f("InnerTrip", p.InnerTrip)
	f("MediumTrip", p.MediumTrip)
	f("TaintedScalarBr", p.TaintedScalarBr)
	f("TaintedPtrBr", p.TaintedPtrBr)
	f("TaintedStructBr", p.TaintedStructBr)
	f("UntaintedBr", p.UntaintedBr)
	f("DeepChainBr", p.DeepChainBr)
	f("ICInLoop", p.ICInLoop)
	f("HeapVulnBufs", p.HeapVulnBufs)
	f("HeapColdBufs", p.HeapColdBufs)
	f("PrintICs", p.PrintICs)
	f("CopyICs", p.CopyICs)
	f("ScanICs", p.ScanICs)
	f("GetICs", p.GetICs)
	f("PutICs", p.PutICs)
	f("MapICs", p.MapICs)
	f("ColdBranches", p.ColdBranches)
	f("ColdHostileBr", p.ColdHostileBr)
	f("ColdDeepBr", p.ColdDeepBr)
	f("DFIFriendly", p.DFIFriendly)
	f("Wrappers", p.Wrappers)
	return b.String()
}

// Fingerprint returns a stable digest of every generator knob. Two
// profiles share a fingerprint iff they generate the same program, so
// the digest is a sound memoization key for builds, runs, and analyses
// — including the persistent cross-process artifact cache.
func (p *Profile) Fingerprint() string {
	sum := sha256.Sum256([]byte(p.canonical()))
	return hex.EncodeToString(sum[:12])
}

// ProfileByName returns a copy of the named profile, or nil. Callers
// that fuzz or re-run a single benchmark (pythia-fuzz -profile) resolve
// it here.
func ProfileByName(name string) *Profile {
	for _, p := range Profiles() {
		if p.Name == name {
			pp := p
			return &pp
		}
	}
	return nil
}
