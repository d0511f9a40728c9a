package inputchan_test

import (
	"testing"

	"repro/internal/inputchan"
	"repro/internal/ir"
	"repro/internal/irpass"
	"repro/internal/minic"
)

func TestDeclareIdempotent(t *testing.T) {
	mod := ir.NewModule("t")
	first := inputchan.Declare(mod)
	n := len(mod.Funcs)
	second := inputchan.Declare(mod)
	if len(mod.Funcs) != n {
		t.Fatal("second Declare added duplicate functions")
	}
	if first["strcpy"] != second["strcpy"] {
		t.Fatal("Declare must return the same function objects")
	}
	if first["scanf"].Channel != ir.KindScan || !first["scanf"].Sig.Variadic {
		t.Fatal("scanf declaration malformed")
	}
}

func TestScanFindsDirectSites(t *testing.T) {
	mod, err := minic.Compile("t", `
int main() {
	char a[8]; char b[8];
	fgets(a, 8);
	memcpy(b, a, 4);
	printf("%s", b);
	strlen(a);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	sites := inputchan.Scan(mod)
	d := inputchan.Distribute(sites)
	if d.Total != 3 {
		t.Fatalf("found %d sites, want 3 (strlen is not a channel)", d.Total)
	}
	if d.ByKind[ir.KindGet] != 1 || d.ByKind[ir.KindMoveCopy] != 1 || d.ByKind[ir.KindPrint] != 1 {
		t.Fatalf("distribution %v", d.ByKind)
	}
}

func TestWrapperClassification(t *testing.T) {
	mod, err := minic.Compile("t", `
void ngx_cpymem(char *dst, char *src, long n) { memcpy(dst, src, n); }
void via_copy(char *dst, char *src) { char *p = dst; strcpy(p, src); }
void log_it(char *msg) { printf("%s", msg); }
long measure(char *s) { return strlen(s); }
int main() {
	char a[8]; char b[8];
	ngx_cpymem(a, b, 4);
	via_copy(a, b);
	log_it(a);
	measure(a);
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	irpass.Optimize(mod) // the front end's last pass classifies wrappers
	if mod.Func("ngx_cpymem").Channel != ir.KindMoveCopy {
		t.Fatal("copy wrapper must inherit move/copy classification")
	}
	if mod.Func("via_copy").Channel != ir.KindPut {
		t.Fatal("a wrapper forwarding its parameter through a local copy must be classified once mem2reg removes the copy")
	}
	if mod.Func("log_it").Channel.IsChannel() {
		t.Fatal("print-forwarding function must NOT be a corrupting channel (print reads)")
	}
	if mod.Func("measure").Channel.IsChannel() {
		t.Fatal("strlen wrapper is not a channel")
	}
}

func TestNestedWrappers(t *testing.T) {
	mod, err := minic.Compile("t", `
void inner(char *dst, char *src) { strcpy(dst, src); }
void outer(char *dst, char *src) { inner(dst, src); }
int main() {
	char a[8];
	outer(a, "x");
	return 0;
}`)
	if err != nil {
		t.Fatal(err)
	}
	irpass.Optimize(mod)
	sites := inputchan.Scan(mod)
	if mod.Func("outer").Channel != ir.KindPut {
		t.Fatal("wrapper-of-wrapper must classify transitively")
	}
	// Sites: strcpy in inner, inner-call in outer, outer-call in main.
	if len(sites) != 3 {
		t.Fatalf("found %d sites, want 3", len(sites))
	}
}

func TestDistributionPercent(t *testing.T) {
	d := inputchan.Distribution{Total: 200, ByKind: map[ir.ChannelKind]int{
		ir.KindPrint:    63,
		ir.KindMoveCopy: 132,
		ir.KindScan:     5,
	}}
	if p := d.Percent(ir.KindPrint); p != 31.5 {
		t.Fatalf("print%% = %v", p)
	}
	if p := d.Percent(ir.KindMoveCopy); p != 66 {
		t.Fatalf("copy%% = %v", p)
	}
	empty := inputchan.Distribution{}
	if empty.Percent(ir.KindPrint) != 0 {
		t.Fatal("empty distribution must not divide by zero")
	}
}
