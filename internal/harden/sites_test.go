package harden_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harden"
	"repro/internal/ir"
	"repro/internal/minic"
)

// sitesSrc takes attacker input, so the vulnerability analysis marks
// main and the passes actually insert checks.
const sitesSrc = `
void pin(long *x) { }
int main() {
	char buf[16];
	long gate;
	pin(&gate);
	gate = 5;
	fgets(buf, 16);
	if (gate == 5) { return 1; }
	return 0;
}`

// TestAssignSites: Apply stamps every hardening instruction with a
// stable "@func#N:op" site id, ids are unique, and they survive a deep
// clone and a codec round-trip (the property the pipeline's cached
// artifacts depend on).
func TestAssignSites(t *testing.T) {
	mod, err := minic.Compile("sites", sitesSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, harden.Pythia); err != nil {
		t.Fatal(err)
	}

	ids := harden.SiteIDs(mod)
	if len(ids) == 0 {
		t.Fatal("no site ids assigned under pythia")
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate site id %s", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, "@") || !strings.Contains(id, "#") || !strings.Contains(id, ":") {
			t.Errorf("malformed site id %q", id)
		}
	}

	// Every hardening instruction has an id; no non-hardening one does.
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				got := in.Site
				if in.Op.IsHardening() && got == "" {
					t.Errorf("@%s: hardening %v without site id", f.FName, in.Op)
				}
				if !in.Op.IsHardening() && got != "" {
					t.Errorf("@%s: non-hardening %v with site id %s", f.FName, in.Op, got)
				}
			}
		}
	}

	// Clone preserves ids.
	if cloned := harden.SiteIDs(mod.Clone()); len(cloned) != len(ids) {
		t.Errorf("clone dropped site ids: %d != %d", len(cloned), len(ids))
	}

	// Codec round-trip preserves ids — cached pipeline artifacts are the
	// decoded form.
	enc, err := ir.EncodeModule(mod)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := ir.DecodeModule(enc)
	if err != nil {
		t.Fatal(err)
	}
	decIDs := harden.SiteIDs(dec)
	if len(decIDs) != len(ids) {
		t.Fatalf("codec dropped site ids: %d != %d", len(decIDs), len(ids))
	}
	for i := range ids {
		if decIDs[i] != ids[i] {
			t.Errorf("site id %d changed across codec: %s != %s", i, decIDs[i], ids[i])
		}
	}
}

// TestAssignSitesIdempotent: re-running AssignSites on an already
// stamped module reassigns the identical ids (stable across repeated
// pipeline stages).
func TestAssignSitesIdempotent(t *testing.T) {
	mod, err := minic.Compile("sites", sitesSrc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Protect(mod, harden.CPA); err != nil {
		t.Fatal(err)
	}
	before := harden.SiteIDs(mod)
	if len(before) == 0 {
		t.Fatal("no site ids assigned under cpa")
	}
	harden.AssignSites(mod)
	after := harden.SiteIDs(mod)
	if len(before) != len(after) {
		t.Fatalf("site count changed: %d != %d", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Errorf("site %d changed: %s != %s", i, before[i], after[i])
		}
	}
}

// TestSiteOpAndCategory: the site-id parser recovers the op suffix
// (first ':' splits, because op names contain dots but never colons)
// and every op family maps to its attribution category; anything
// unrecognized lands in meta rather than vanishing.
func TestSiteOpAndCategory(t *testing.T) {
	cases := []struct {
		id, op, cat string
	}{
		{"@main#0:pac.sign", "pac.sign", harden.CategoryPA},
		{"@main#1:pac.auth", "pac.auth", harden.CategoryPA},
		{"@f#2:obj.seal", "obj.seal", harden.CategoryPA},
		{"@f#3:obj.check", "obj.check", harden.CategoryPA},
		{"@f#4:seal.store", "seal.store", harden.CategoryPA},
		{"@f#5:check.load", "check.load", harden.CategoryPA},
		{"@g#0:canary.set", "canary.set", harden.CategoryCanary},
		{"@g#1:canary.check", "canary.check", harden.CategoryCanary},
		{"@h#0:dfi.setdef", "dfi.setdef", harden.CategoryDFI},
		{"@h#1:dfi.chkdef", "dfi.chkdef", harden.CategoryDFI},
		{"@h#2:mystery.op", "mystery.op", harden.CategoryMeta},
		{"not-a-site-id", "", harden.CategoryMeta},
		{"@broken#0", "", harden.CategoryMeta},
	}
	for _, c := range cases {
		if got := harden.SiteOp(c.id); got != c.op {
			t.Errorf("SiteOp(%q) = %q, want %q", c.id, got, c.op)
		}
		if got := harden.SiteCategory(c.id); got != c.cat {
			t.Errorf("SiteCategory(%q) = %q, want %q", c.id, got, c.cat)
		}
	}
	// Categories is the stable report order with residual last.
	if len(harden.Categories) != 5 || harden.Categories[len(harden.Categories)-1] != harden.CategoryResidual {
		t.Errorf("Categories = %v", harden.Categories)
	}
}

// TestSiteIDsCategorized: every id a real hardening pass assigns parses
// into a non-meta category — a new hardening op that falls through to
// meta should be added to SiteCategory (meta is for bookkeeping, not a
// dumping ground for classifiable checks).
func TestSiteIDsCategorized(t *testing.T) {
	for _, scheme := range []harden.Scheme{harden.CPA, harden.Pythia} {
		mod, err := minic.Compile("sites", sitesSrc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Protect(mod, scheme); err != nil {
			t.Fatal(err)
		}
		for _, id := range harden.SiteIDs(mod) {
			if harden.SiteOp(id) == "" {
				t.Errorf("%v: id %q does not parse", scheme, id)
			}
			if harden.SiteCategory(id) == harden.CategoryMeta {
				t.Errorf("%v: id %q fell through to meta", scheme, id)
			}
		}
	}
}
