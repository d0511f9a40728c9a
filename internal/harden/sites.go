package harden

// Stable check-site identity. Every hardening-inserted instruction (PA
// sign/auth, seal/check, canary store/check, DFI def/use) gets a
// deterministic site id in its Instr.Site, which the IR codec stores,
// so dynamic coverage counts survive the artifact store and module
// clones — the id travels with the instruction wherever the pipeline
// ships it. A machine reads each id when it first profiles a function;
// a decoded id is a substring of the decoder's input, so reading one
// allocates nothing.

import (
	"strconv"
	"strings"

	"repro/internal/ir"
)

// AssignSites walks mod's defined functions in order and stamps every
// hardening instruction with a stable site id of the form
// "@func#N:op", where N is the check's ordinal within its function.
// Idempotent for an unchanged module (the walk order is the module's
// canonical block order). Returns the number of sites assigned.
func AssignSites(mod *ir.Module) int {
	n := 0
	for _, f := range mod.Defined() {
		i := 0
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.Op.IsHardening() {
					continue
				}
				in.Site = "@" + f.FName + "#" + strconv.Itoa(i) + ":" + in.Op.String()
				i++
				n++
			}
		}
	}
	return n
}

// SiteOp returns the opcode component of an AssignSites id
// ("@main#3:pac.sign" -> "pac.sign"), or "" for a malformed id. Op
// renderings never contain a colon, so the first ':' is the separator.
func SiteOp(id string) string {
	if !strings.HasPrefix(id, "@") {
		return ""
	}
	i := strings.IndexByte(id, ':')
	if i < 0 || i+1 == len(id) {
		return ""
	}
	return id[i+1:]
}

// Check-kind categories for overhead attribution. A site id's opcode
// maps to the defense mechanism whose cost it carries; CategoryMeta
// additionally absorbs non-site bookkeeping cycles (sectioned-allocator
// latency, heap-section init) and any unrecognized hardening op, and
// CategoryResidual is the accounting remainder — cache and branch
// effects of the instrumentation that no single site owns.
const (
	CategoryPA       = "pa"
	CategoryCanary   = "canary"
	CategoryDFI      = "dfi"
	CategoryMeta     = "meta"
	CategoryResidual = "residual"
)

// Categories lists every attribution category in report order.
var Categories = []string{CategoryPA, CategoryCanary, CategoryDFI, CategoryMeta, CategoryResidual}

// SiteCategory buckets a site id into its check-kind category. Every
// hardening op must map somewhere: unknown ops fall into CategoryMeta
// rather than vanishing, so attribution stays exhaustive when a new
// hardening opcode appears before this table learns about it.
func SiteCategory(id string) string {
	switch op := SiteOp(id); {
	case strings.HasPrefix(op, "pac.") || strings.HasPrefix(op, "obj.") ||
		strings.HasPrefix(op, "seal.") || strings.HasPrefix(op, "check."):
		// The whole ir.Op.IsPA family: pac intrinsics, sealed-scalar
		// seal.store/check.load, and object-granular obj.seal/obj.check.
		return CategoryPA
	case strings.HasPrefix(op, "canary."):
		return CategoryCanary
	case strings.HasPrefix(op, "dfi."):
		return CategoryDFI
	default:
		return CategoryMeta
	}
}

// SiteIDs returns every assigned site id in mod, in assignment order.
func SiteIDs(mod *ir.Module) []string {
	var out []string
	for _, f := range mod.Defined() {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Site != "" {
					out = append(out, in.Site)
				}
			}
		}
	}
	return out
}
