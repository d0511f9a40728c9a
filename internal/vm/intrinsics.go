package vm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/ir"
)

// DFIWildcard is the def ID the DFI pass assigns to input-channel call
// sites whose destination it cannot resolve (pointer arithmetic, field-
// insensitive cases). Writes tagged wildcard are always permitted —
// modeling exactly the imprecision the paper exploits ("DFI is unable to
// reason about pointer arithmetic and field sensitivity cases").
const DFIWildcard = -1

// InputStream is the attacker-controllable byte source consumed by the
// input-channel intrinsics.
type InputStream struct {
	data []byte
	pos  int
}

// NewInputStream wraps b as the program's stdin.
func NewInputStream(b []byte) *InputStream { return &InputStream{data: b} }

// SetInput resets the stream contents and position.
func (s *InputStream) SetInput(b []byte) { s.data = b; s.pos = 0 }

// ReadLine returns a copy of the bytes up to (excluding) the next '\n'.
// All readers copy: callers append NUL terminators to the result, and an
// aliased return would corrupt unread input.
func (s *InputStream) ReadLine() []byte {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] != '\n' {
		s.pos++
	}
	out := append([]byte(nil), s.data[start:s.pos]...)
	if s.pos < len(s.data) {
		s.pos++ // consume the newline
	}
	return out
}

// ReadToken skips whitespace then returns the next whitespace-delimited
// token.
func (s *InputStream) ReadToken() []byte {
	for s.pos < len(s.data) && isSpace(s.data[s.pos]) {
		s.pos++
	}
	start := s.pos
	for s.pos < len(s.data) && !isSpace(s.data[s.pos]) {
		s.pos++
	}
	return append([]byte(nil), s.data[start:s.pos]...)
}

// ReadN returns up to n raw bytes.
func (s *InputStream) ReadN(n int) []byte {
	if s.pos >= len(s.data) {
		return nil
	}
	end := s.pos + n
	if end > len(s.data) {
		end = len(s.data)
	}
	out := append([]byte(nil), s.data[s.pos:end]...)
	s.pos = end
	return out
}

func isSpace(b byte) bool { return b == ' ' || b == '\n' || b == '\t' || b == '\r' }

// dfiMarkRange tags every byte of [addr, addr+n) as last-written by def
// id, the behaviour of DFI's instrumented library wrappers.
func (m *Machine) dfiMarkRange(addr uint64, n int, id int) {
	if id == 0 {
		return // uninstrumented module: no tracking
	}
	for i := 0; i < n; i++ {
		m.dfiRDT[addr+uint64(i)] = id
	}
}

// writeBytesMetered stores b at addr charging the meter one store and
// one plain instruction (the default opcode entry) per 8-byte word.
func (m *Machine) writeBytesMetered(f *ir.Func, in *ir.Instr, addr uint64, b []byte) {
	step := 8
	for i := 0; i < len(b); i += step {
		m.Meter.OnStore(addr + uint64(i))
		m.Meter.OnInstr(ir.OpInvalid)
	}
	if err := m.Mem.WriteBytes(addr, b); err != nil {
		panic(m.fault(memKind(err), f, in, err))
	}
}

// readBytesMetered loads n bytes charging the meter one load and one
// plain instruction per 8-byte word. The bytes sit in the machine's
// read buffer, valid until its next buffered read.
func (m *Machine) readBytesMetered(f *ir.Func, in *ir.Instr, addr uint64, n int) []byte {
	step := 8
	for i := 0; i < n; i += step {
		m.Meter.OnLoad(addr + uint64(i))
		m.Meter.OnInstr(ir.OpInvalid)
	}
	return m.readBuffered(f, in, addr, n)
}

func (m *Machine) cstring(f *ir.Func, in *ir.Instr, addr uint64) string {
	s, err := m.Mem.ReadCString(addr, 1<<20)
	if err != nil {
		panic(m.fault(memKind(err), f, in, err))
	}
	return s
}

// intrinsic dispatches a call to a body-less declaration. The set covers
// the libc surface the paper's listings and benchmarks use, the malloc
// family (including Pythia's secure_malloc), and small pure helpers.
func (m *Machine) intrinsic(f *ir.Func, in *ir.Instr, callee *ir.Func, args []uint64) (uint64, error) {
	id := in.DefID // the DFI definition of the call's writes; 0 without DFI
	switch callee.FName {
	// ---- allocation ----
	case "malloc", "calloc":
		size := int64(args[0])
		if callee.FName == "calloc" {
			size = int64(args[0]) * int64(args[1])
		}
		addr, err := m.Heap.Malloc(size)
		if err != nil {
			return 0, nil // C malloc returns NULL on exhaustion
		}
		if callee.FName == "calloc" {
			m.writeBytesMetered(f, in, addr, make([]byte, size))
		}
		return addr, nil
	case "secure_malloc":
		m.Meter.OnSecureMalloc()
		addr, err := m.Heap.SecureMalloc(int64(args[0]))
		if err != nil {
			return 0, nil
		}
		return addr, nil
	case "free":
		if args[0] != 0 {
			if err := m.Heap.Free(args[0]); err != nil {
				return 0, m.fault(FaultRuntime, f, in, err)
			}
		}
		return 0, nil
	case "realloc":
		if args[0] == 0 {
			addr, err := m.Heap.Malloc(int64(args[1]))
			if err != nil {
				return 0, nil
			}
			return addr, nil
		}
		naddr, oldSize, err := m.Heap.Realloc(args[0], int64(args[1]))
		if err != nil {
			return 0, m.fault(FaultRuntime, f, in, err)
		}
		if naddr != args[0] {
			n := oldSize
			if int64(args[1]) < n {
				n = int64(args[1])
			}
			b := m.readBytesMetered(f, in, args[0], int(n))
			m.writeBytesMetered(f, in, naddr, b)
			if err := m.Heap.Free(args[0]); err != nil {
				return 0, m.fault(FaultRuntime, f, in, err)
			}
		}
		return naddr, nil
	case "mmap":
		// Anonymous mapping from the shared arena (map input channel).
		addr, err := m.Heap.Malloc(int64(args[0]))
		if err != nil {
			return 0, nil
		}
		return addr, nil

	// ---- put / move-copy channels ----
	case "strcpy":
		src := m.cstring(f, in, args[1])
		buf := append([]byte(src), 0)
		m.writeBytesMetered(f, in, args[0], buf)
		m.dfiMarkRange(args[0], len(buf), id)
		return args[0], nil
	case "strcat":
		dst := m.cstring(f, in, args[0])
		src := m.cstring(f, in, args[1])
		buf := append([]byte(src), 0)
		m.writeBytesMetered(f, in, args[0]+uint64(len(dst)), buf)
		m.dfiMarkRange(args[0]+uint64(len(dst)), len(buf), id)
		return args[0], nil
	case "strncpy", "sstrncpy":
		src := m.cstring(f, in, args[1])
		n := int(int64(args[2]))
		if n < 0 {
			n = 0
		}
		buf := make([]byte, n)
		copy(buf, src)
		m.writeBytesMetered(f, in, args[0], buf)
		m.dfiMarkRange(args[0], len(buf), id)
		return args[0], nil
	case "memcpy", "memmove":
		n := int(int64(args[2]))
		if n < 0 {
			n = 0
		}
		b := m.readBytesMetered(f, in, args[1], n)
		m.writeBytesMetered(f, in, args[0], b)
		m.dfiMarkRange(args[0], n, id)
		return args[0], nil
	case "memset":
		n := int(int64(args[2]))
		if n < 0 {
			n = 0
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(args[1])
		}
		m.writeBytesMetered(f, in, args[0], b)
		m.dfiMarkRange(args[0], n, id)
		return args[0], nil

	// ---- get / scan channels ----
	case "gets":
		line := append(m.Stdin.ReadLine(), 0)
		m.writeBytesMetered(f, in, args[0], line)
		m.dfiMarkRange(args[0], len(line), id)
		return args[0], nil
	case "fgets":
		n := int(int64(args[1]))
		line := m.Stdin.ReadLine()
		if n > 0 && len(line) > n-1 {
			line = line[:n-1]
		}
		buf := append(append([]byte(nil), line...), 0)
		m.writeBytesMetered(f, in, args[0], buf)
		m.dfiMarkRange(args[0], len(buf), id)
		return args[0], nil
	case "read":
		// read(fd, buf, n) — fd ignored; bounded by n.
		n := int(int64(args[2]))
		b := m.Stdin.ReadN(n)
		m.writeBytesMetered(f, in, args[1], b)
		m.dfiMarkRange(args[1], len(b), id)
		return uint64(len(b)), nil
	case "scanf":
		return m.scanf(f, in, args, id)

	// ---- print channels ----
	case "printf":
		s := m.formatPrintf(f, in, args)
		m.Stdout = append(m.Stdout, s...)
		return uint64(len(s)), nil
	case "puts":
		s := m.cstring(f, in, args[0])
		m.Stdout = append(m.Stdout, s...)
		m.Stdout = append(m.Stdout, '\n')
		return uint64(len(s) + 1), nil
	case "sprintf":
		s := m.formatPrintf(f, in, args[1:])
		buf := append([]byte(s), 0)
		m.writeBytesMetered(f, in, args[0], buf)
		m.dfiMarkRange(args[0], len(buf), id)
		return uint64(len(s)), nil

	case "strdup":
		src := m.cstring(f, in, args[0])
		addr, err := m.Heap.Malloc(int64(len(src) + 1))
		if err != nil {
			return 0, nil
		}
		m.writeBytesMetered(f, in, addr, append([]byte(src), 0))
		m.dfiMarkRange(addr, len(src)+1, id)
		return addr, nil
	case "snprintf":
		n := int(int64(args[1]))
		s := m.formatPrintf(f, in, append([]uint64{args[2]}, args[3:]...))
		full := len(s)
		if n > 0 && len(s) > n-1 {
			s = s[:n-1]
		}
		if n > 0 {
			m.writeBytesMetered(f, in, args[0], append([]byte(s), 0))
			m.dfiMarkRange(args[0], len(s)+1, id)
		}
		return uint64(full), nil

	// ---- pure string/number helpers ----
	case "strchr":
		s := m.cstring(f, in, args[0])
		for i := 0; i < len(s); i++ {
			if s[i] == byte(args[1]) {
				return args[0] + uint64(i), nil
			}
		}
		return 0, nil
	case "strstr":
		s := m.cstring(f, in, args[0])
		sub := m.cstring(f, in, args[1])
		if i := strings.Index(s, sub); i >= 0 {
			return args[0] + uint64(i), nil
		}
		return 0, nil
	case "strlen":
		return uint64(len(m.cstring(f, in, args[0]))), nil
	case "strcmp":
		a := m.cstring(f, in, args[0])
		b := m.cstring(f, in, args[1])
		return uint64(int64(strings.Compare(a, b))), nil
	case "strncmp":
		a := m.cstring(f, in, args[0])
		b := m.cstring(f, in, args[1])
		n := int(int64(args[2]))
		if len(a) > n {
			a = a[:n]
		}
		if len(b) > n {
			b = b[:n]
		}
		return uint64(int64(strings.Compare(a, b))), nil
	case "atoi":
		v, _ := strconv.ParseInt(strings.TrimSpace(m.cstring(f, in, args[0])), 10, 64)
		return uint64(v), nil
	case "abs":
		v := int64(args[0])
		if v < 0 {
			v = -v
		}
		return uint64(v), nil
	case "rand":
		return uint64(m.random().Int63n(1 << 31)), nil
	case "exit":
		return 0, m.fault(FaultRuntime, f, in, fmt.Errorf("exit(%d)", int64(args[0])))
	}
	return 0, fmt.Errorf("vm: unknown intrinsic @%s", callee.FName)
}

// scanf supports %d, %ld and %s conversions — the forms the paper's
// listings use. %s is the unbounded overflow vector.
func (m *Machine) scanf(f *ir.Func, in *ir.Instr, args []uint64, id int) (uint64, error) {
	format := m.cstring(f, in, args[0])
	argi := 1
	converted := uint64(0)
	for i := 0; i < len(format); i++ {
		if format[i] != '%' || i+1 >= len(format) {
			continue
		}
		spec := format[i+1]
		if spec == 'l' && i+2 < len(format) {
			spec = format[i+2]
		}
		if argi >= len(args) {
			break
		}
		switch spec {
		case 'd':
			tok := string(m.Stdin.ReadToken())
			v, _ := strconv.ParseInt(tok, 10, 64)
			m.Meter.OnStore(args[argi])
			if err := m.Mem.WriteUint(args[argi], uint64(v), 8); err != nil {
				return converted, m.fault(memKind(err), f, in, err)
			}
			m.dfiMarkRange(args[argi], 8, id)
			argi++
			converted++
		case 's':
			tok := append(m.Stdin.ReadToken(), 0)
			m.writeBytesMetered(f, in, args[argi], tok)
			m.dfiMarkRange(args[argi], len(tok), id)
			argi++
			converted++
		}
	}
	return converted, nil
}

// formatPrintf renders %d/%s/%x/%c verbs against the remaining args.
func (m *Machine) formatPrintf(f *ir.Func, in *ir.Instr, args []uint64) string {
	if len(args) == 0 {
		return ""
	}
	format := m.cstring(f, in, args[0])
	var b strings.Builder
	argi := 1
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' || i+1 >= len(format) {
			b.WriteByte(c)
			continue
		}
		i++
		spec := format[i]
		if spec == 'l' && i+1 < len(format) {
			i++
			spec = format[i]
		}
		if spec == '%' {
			b.WriteByte('%')
			continue
		}
		if argi >= len(args) {
			continue
		}
		switch spec {
		case 'd':
			fmt.Fprintf(&b, "%d", int64(args[argi]))
		case 'x':
			fmt.Fprintf(&b, "%x", args[argi])
		case 'c':
			b.WriteByte(byte(args[argi]))
		case 's':
			b.WriteString(m.cstring(f, in, args[argi]))
		default:
			fmt.Fprintf(&b, "%%%c", spec)
		}
		argi++
	}
	return b.String()
}
