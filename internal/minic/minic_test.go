package minic_test

import (
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/vm"
)

// run compiles src and executes main(), failing the test on any error.
func run(t *testing.T, src string, stdin string) *vm.Result {
	t.Helper()
	mod, err := minic.Compile("test", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	m := vm.New(mod, vm.Config{Seed: 1})
	m.Stdin.SetInput([]byte(stdin))
	res, err := m.Run("main")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	res := run(t, `
int main() {
	int a = 6, b = 7;
	return a * b + (100 / 5) - (9 % 4);
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 6*7+20-1 {
		t.Fatalf("got %d, want %d", got, 6*7+20-1)
	}
}

func TestControlFlow(t *testing.T) {
	res := run(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 10; i++) {
		if (i % 2 == 0) { sum += i; } else { sum -= 1; }
	}
	int j = 0;
	while (j < 3) { j++; }
	do { j++; } while (j < 5);
	return sum + j;
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	want := int64(0+2+4+6+8-5) + 5
	if got := int64(res.Ret); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestShortCircuit(t *testing.T) {
	res := run(t, `
int side = 0;
int bump() { side = side + 1; return 1; }
int main() {
	int a = 0;
	if (a && bump()) { return 100; }
	if (a || bump()) { }
	return side;
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 1 {
		t.Fatalf("short-circuit side count = %d, want 1", got)
	}
}

func TestPointersAndArrays(t *testing.T) {
	res := run(t, `
int main() {
	int arr[10];
	int *p = arr;
	for (int i = 0; i < 10; i++) { arr[i] = i * i; }
	p = p + 3;
	int x = *p;        // 9
	p++;
	int y = *p;        // 16
	int *q = &arr[9];
	return x + y + *q; // 9+16+81
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 9+16+81 {
		t.Fatalf("got %d, want %d", got, 9+16+81)
	}
}

func TestStringsAndLibc(t *testing.T) {
	res := run(t, `
int main() {
	char buf[32];
	strcpy(buf, "hello");
	strcat(buf, " world");
	if (strcmp(buf, "hello world") != 0) { return 1; }
	if (strlen(buf) != 11) { return 2; }
	if (strncmp(buf, "hello", 5) != 0) { return 3; }
	printf("%s!%d\n", buf, 42);
	return 0;
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if res.Ret != 0 {
		t.Fatalf("returned %d, want 0", int64(res.Ret))
	}
	if got := string(res.Stdout); got != "hello world!42\n" {
		t.Fatalf("stdout = %q", got)
	}
}

func TestScanfAndHeap(t *testing.T) {
	res := run(t, `
int main() {
	int k;
	scanf("%d", &k);
	int *buf = malloc(8 * 16);
	for (int i = 0; i < 16; i++) { buf[i] = k + i; }
	int total = 0;
	for (int i = 0; i < 16; i++) { total += buf[i]; }
	free(buf);
	return total;
}`, "5\n")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	want := int64(0)
	for i := int64(0); i < 16; i++ {
		want += 5 + i
	}
	if got := int64(res.Ret); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestStructs(t *testing.T) {
	res := run(t, `
struct point { int x; int y; char tag; };
int main() {
	struct point p;
	p.x = 3; p.y = 4; p.tag = 'z';
	struct point *q = &p;
	q->x = q->x * 10;
	return p.x + p.y + p.tag;
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 30+4+'z' {
		t.Fatalf("got %d, want %d", got, 30+4+int64('z'))
	}
}

func TestFunctionCalls(t *testing.T) {
	res := run(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
void fill(char *dst, char c, int n) {
	for (int i = 0; i < n; i++) { dst[i] = c; }
}
int main() {
	char buf[8];
	fill(buf, 'a', 7);
	buf[7] = '\0';
	return fib(10) + strlen(buf);
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 55+7 {
		t.Fatalf("got %d, want %d", got, 62)
	}
}

func TestGlobals(t *testing.T) {
	res := run(t, `
int counter = 5;
char tag;
int bump(int by) { counter += by; return counter; }
int main() {
	tag = 'x';
	bump(3);
	bump(2);
	return counter + tag;
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 10+'x' {
		t.Fatalf("got %d, want %d", got, 10+int64('x'))
	}
}

func TestOverflowClobbersNeighborsUnprotected(t *testing.T) {
	// A classic Listing-1-style overflow: with the default stack layout,
	// writing past buf corrupts the adjacent local without any fault.
	res := run(t, `
int main() {
	char buf[8];
	char user[8];
	strcpy(user, "normal");
	gets(buf);
	if (strcmp(user, "normal") != 0) { return 99; }
	return 0;
}`, "AAAAAAAAAAAAAAAAAAAAAAAA\n")
	if res.Fault != nil {
		t.Fatalf("vanilla run should not fault, got %v", res.Fault)
	}
	if res.Ret != 99 {
		t.Fatalf("overflow should have corrupted user (ret=%d)", int64(res.Ret))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`int main( { return 0; }`,
		`int main() { return 0 }`,
		`int main() { undefined_fn(); return 0; }`,
		`int main() { struct nope n; return 0; }`,
		`int main() { break; }`,
		`long A={`,
		`int main() { int b[2] = {`,
		`int f() { return 1; } int f() { return 2; } int main() { return f(); }`,
		`void f() {} void f(char c) { f(c); }`,
	}
	for _, src := range cases {
		if _, err := minic.Compile("bad", src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestVerifiedIR(t *testing.T) {
	mod, err := minic.Compile("t", `
int main() {
	int x = 1;
	if (x > 0 && x < 10) { x = 2; }
	return x;
}`)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("verify: %v", err)
	}
	text := mod.String()
	for _, want := range []string{"define i64 @main", "condbr", "phi"} {
		if !strings.Contains(text, want) {
			t.Errorf("printed module missing %q:\n%s", want, text)
		}
	}
}

func TestIncDecPrefixPostfix(t *testing.T) {
	res := run(t, `
int main() {
	int i = 5;
	int post = i++;   /* 5, i becomes 6 */
	int pre = ++i;    /* 7 */
	int predec = --i; /* 6 */
	int postdec = i--; /* 6, i becomes 5 */
	return post * 1000 + pre * 100 + predec * 10 + (postdec - i);
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	want := int64(5*1000 + 7*100 + 6*10 + 1)
	if got := int64(res.Ret); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}

func TestPointerIncDec(t *testing.T) {
	res := run(t, `
int main() {
	int arr[4];
	for (int i = 0; i < 4; i++) { arr[i] = i * 10; }
	int *p = arr;
	p++;
	int a = *p;      /* 10 */
	int *q = ++p;    /* both at arr+2 */
	return a + *q;   /* 10 + 20 */
}`, "")
	if res.Fault != nil {
		t.Fatalf("fault: %v", res.Fault)
	}
	if got := int64(res.Ret); got != 30 {
		t.Fatalf("got %d, want 30", got)
	}
}
