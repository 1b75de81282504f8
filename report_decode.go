package shelfsim

import (
	"encoding"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"unsafe"
)

// This file is DecodeReport's fast path: one scan over the bytes that
// json.Marshal gives for a Report, writing each value straight into its
// field. Where each value goes comes from a plan built once, at package
// init, from the structs' json tags (or Go field names) and field offsets,
// so a field added to Stats, ThreadReport or CacheStats later is decoded
// with no edit here.
//
// The scan accepts only inputs on which encoding/json gives the same
// Report, and declines everything else; DecodeReport then hands the whole
// input to json.Unmarshal. What it accepts:
//
//   - no whitespace anywhere, and nothing after the value;
//   - in each object, keys spelled exactly as the plan names them, in
//     strictly increasing declaration order (which rules out duplicates,
//     unknown keys and case-folded spellings); absent keys stay zero;
//   - integers matching -?(0|[1-9][0-9]*), at most 19 digits, that fit
//     the field (no sign on a uint64);
//   - floats in JSON number syntax, parsed with strconv.ParseFloat(lit,
//     64), the call encoding/json makes;
//   - strings of printable ASCII with no backslash escape;
//   - fixed arrays of exactly their length, and []ThreadReport.
//
// It declines null, escapes, non-ASCII, a present obs (telemetry maps are
// not planned), and any field type or struct layout the plan does not
// mirror exactly. Which path reads an input depends only on the input.

// planKind is how one Go value is decoded.
type planKind uint8

const (
	planDecline planKind = iota // never decoded by the fast path
	planInt
	planUint
	planFloat
	planString
	planStruct
	planArray
	planSlice
)

// decodePlan decodes one JSON value into a Go value of one type.
type decodePlan struct {
	kind planKind
	// bits is a signed integer's width.
	bits int
	// fields are a struct's JSON fields in declaration order.
	fields []planField
	// elem, n and stride describe an array's elements; elem and slice a
	// slice's.
	elem   *decodePlan
	n      int
	stride uintptr
	slice  sliceOps
}

// planField is one struct field: its JSON key and its byte offset.
type planField struct {
	key  string
	off  uintptr
	plan *decodePlan
}

// sliceOps makes a []T non-nil and empty, and appends a zero element to
// it, through an untyped pointer to the slice.
type sliceOps struct {
	reset  func(unsafe.Pointer)
	append func(unsafe.Pointer) unsafe.Pointer
}

// opsFor is sliceOps for []T.
func opsFor[T any]() sliceOps {
	return sliceOps{
		reset: func(p unsafe.Pointer) { *(*[]T)(p) = make([]T, 0, 4) },
		append: func(p unsafe.Pointer) unsafe.Pointer {
			s := (*[]T)(p)
			*s = append(*s, *new(T))
			return unsafe.Pointer(&(*s)[len(*s)-1])
		},
	}
}

// reportPlan is the Report's plan, built at package init.
var reportPlan = planner{}.plan(reflect.TypeFor[Report]())

// planner builds plans, one per type.
type planner map[reflect.Type]*decodePlan

// plan returns t's plan. A type encoding/json decodes through a method,
// or whose struct layout the plan does not mirror, is declined.
func (pl planner) plan(t reflect.Type) *decodePlan {
	if p, ok := pl[t]; ok {
		return p
	}
	p := &decodePlan{}
	pl[t] = p
	if reflect.PointerTo(t).Implements(reflect.TypeFor[json.Unmarshaler]()) ||
		reflect.PointerTo(t).Implements(reflect.TypeFor[encoding.TextUnmarshaler]()) {
		return p
	}
	switch t.Kind() {
	case reflect.Int, reflect.Int64:
		p.kind, p.bits = planInt, t.Bits()
	case reflect.Uint64:
		p.kind = planUint
	case reflect.Float64:
		p.kind = planFloat
	case reflect.String:
		p.kind = planString
	case reflect.Array:
		p.kind, p.elem, p.n, p.stride = planArray, pl.plan(t.Elem()), t.Len(), t.Elem().Size()
	case reflect.Slice:
		// Appending needs the element type at compile time, and
		// []ThreadReport is the only slice a Report holds.
		if t == reflect.TypeFor[[]ThreadReport]() {
			p.kind, p.elem, p.slice = planSlice, pl.plan(t.Elem()), opsFor[ThreadReport]()
		}
	case reflect.Struct:
		if fields, ok := pl.structFields(t); ok {
			p.kind, p.fields = planStruct, fields
		}
	}
	return p
}

// structFields lists t's JSON fields as encoding/json names them. It
// reports false for a struct it might name differently, or whose keys
// the scan could not match byte for byte: one with an embedded field, a
// ",string" option, a key that is not plain (a tag name encoding/json
// might reject, or one json.Marshal would escape), or two fields under
// one key.
func (pl planner) structFields(t reflect.Type) ([]planField, bool) {
	var fields []planField
	seen := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			return nil, false
		}
		if !f.IsExported() {
			continue
		}
		tag := f.Tag.Get("json")
		if tag == "-" {
			continue
		}
		name, opts, _ := strings.Cut(tag, ",")
		if strings.Contains(","+opts+",", ",string,") {
			return nil, false
		}
		if name == "" {
			name = f.Name
		}
		if !plainKey(name) {
			return nil, false
		}
		if seen[name] {
			return nil, false
		}
		seen[name] = true
		fields = append(fields, planField{key: name, off: f.Offset, plan: pl.plan(f.Type)})
	}
	return fields, true
}

// plainKey reports whether key is non-empty letters, digits and '_', the
// keys a scan can match byte for byte.
func plainKey(key string) bool {
	for _, c := range []byte(key) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return key != ""
}

// decodeFast decodes data into *rep by reportPlan, reporting false — with
// *rep in an unspecified state — when data is outside what the fast path
// accepts.
func decodeFast(data []byte, rep *Report) bool {
	s := scan{b: data}
	return s.value(unsafe.Pointer(rep), reportPlan) && s.i == len(s.b)
}

// scan is the fast path's cursor over its input.
type scan struct {
	b []byte
	i int
}

// next consumes c if it is the next byte.
func (s *scan) next(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// value decodes one JSON value into the Go value at p.
func (s *scan) value(p unsafe.Pointer, pl *decodePlan) bool {
	switch pl.kind {
	case planStruct:
		return s.object(p, pl.fields)
	case planArray:
		if !s.next('[') {
			return false
		}
		for k := 0; k < pl.n; k++ {
			if k > 0 && !s.next(',') {
				return false
			}
			if !s.value(unsafe.Add(p, uintptr(k)*pl.stride), pl.elem) {
				return false
			}
		}
		return s.next(']')
	case planSlice:
		if !s.next('[') {
			return false
		}
		pl.slice.reset(p)
		if s.next(']') {
			return true
		}
		for {
			if !s.value(pl.slice.append(p), pl.elem) {
				return false
			}
			if !s.next(',') {
				return s.next(']')
			}
		}
	case planString:
		str, ok := s.str()
		if ok {
			*(*string)(p) = string(str)
		}
		return ok
	case planInt, planUint:
		return s.integer(p, pl)
	case planFloat:
		lit, ok := s.number()
		if !ok {
			return false
		}
		v, err := strconv.ParseFloat(string(lit), 64)
		if err != nil {
			return false
		}
		*(*float64)(p) = v
		return true
	}
	return false
}

// object decodes a JSON object into the struct at p, whose fields are
// fields.
func (s *scan) object(p unsafe.Pointer, fields []planField) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	j := 0
	for {
		if j == len(fields) || !s.key(fields[j].key) {
			// Not the next field's key: a later field's, or nothing the
			// scan accepts.
			key, ok := s.str()
			if !ok {
				return false
			}
			for j < len(fields) && fields[j].key != string(key) {
				j++
			}
			if j == len(fields) {
				return false
			}
		}
		if !s.next(':') {
			return false
		}
		f := &fields[j]
		j++
		if !s.value(unsafe.Add(p, f.off), f.plan) {
			return false
		}
		if !s.next(',') {
			return s.next('}')
		}
	}
}

// key consumes the string "k" if the input continues with it.
func (s *scan) key(k string) bool {
	b := s.b[s.i:]
	if len(b) < len(k)+2 || b[0] != '"' || string(b[1:1+len(k)]) != k || b[1+len(k)] != '"' {
		return false
	}
	s.i += len(k) + 2
	return true
}

// str consumes a string of printable ASCII with no escapes and returns
// its contents.
func (s *scan) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	start := s.i + 1
	for i := start; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			s.i = i + 1
			return s.b[start:i], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// number consumes one number in JSON syntax and returns its text.
func (s *scan) number() ([]byte, bool) {
	b, i := s.b, s.i
	digits := func() bool {
		start := i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[s.i:i]
	s.i = i
	return lit, true
}

// integer decodes an integer literal into the int, int64 or uint64 field
// at p.
func (s *scan) integer(p unsafe.Pointer, pl *decodePlan) bool {
	b, i := s.b, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		n = n*10 + uint64(b[i]-'0')
	}
	// At most 19 digits, so the magnitude did not overflow a uint64; a
	// longer literal, a leading zero, a fraction and an exponent are
	// declined.
	if digits := i - start; digits == 0 || digits > 19 || digits > 1 && b[start] == '0' {
		return false
	}
	if i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return false
	}
	s.i = i
	if pl.kind == planUint {
		*(*uint64)(p) = n
		return !neg
	}
	if limit := uint64(1) << (pl.bits - 1); n > limit || n == limit && !neg {
		return false
	}
	v := int64(n)
	if neg {
		v = -v
	}
	if pl.bits == 32 {
		*(*int32)(p) = int32(v) // an int on a 32-bit platform
	} else {
		*(*int64)(p) = v
	}
	return true
}
