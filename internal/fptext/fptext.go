// Package fptext writes the texts that configuration and result
// fingerprints hash, without fmt. The fingerprints are defined by fmt
// formulas (kept in the owners' tests as references); each Text method
// appends exactly the bytes one fmt verb gives for its operand, and Sum
// hashes a text the way the formulas do: FNV-1a 64 over the bytes, as
// "%016x". Building a text is a few appends into a caller's buffer, so a
// fingerprint costs no reflection and, with a large enough buffer, one
// allocation for the returned string.
package fptext

import "strconv"

// Text is a fingerprint text under construction. Every method appends a
// literal key and then one value, and returns the extended text.
type Text []byte

// Key appends a literal.
func (t Text) Key(key string) Text { return append(t, key...) }

// Int appends key and v as %d.
func (t Text) Int(key string, v int64) Text { return strconv.AppendInt(t.Key(key), v, 10) }

// Uint appends key and v as %d.
func (t Text) Uint(key string, v uint64) Text { return strconv.AppendUint(t.Key(key), v, 10) }

// Bool appends key and v as %t.
func (t Text) Bool(key string, v bool) Text { return strconv.AppendBool(t.Key(key), v) }

// Float appends key and v as %.17g.
func (t Text) Float(key string, v float64) Text {
	return strconv.AppendFloat(t.Key(key), v, 'g', 17, 64)
}

// Str appends key and v as %s (or as %v, a string field under %+v).
func (t Text) Str(key, v string) Text { return append(t.Key(key), v...) }

// Quote appends key and v as %q.
func (t Text) Quote(key, v string) Text { return strconv.AppendQuote(t.Key(key), v) }

// Ints appends key and v as %v of an integer array: "[1 2 3]".
func (t Text) Ints(key string, v []int64) Text {
	t = t.Key(key).Key("[")
	for i, x := range v {
		if i > 0 {
			t = append(t, ' ')
		}
		t = strconv.AppendInt(t, x, 10)
	}
	return t.Key("]")
}

// Uints is Ints for unsigned integers.
func (t Text) Uints(key string, v []uint64) Text {
	t = t.Key(key).Key("[")
	for i, x := range v {
		if i > 0 {
			t = append(t, ' ')
		}
		t = strconv.AppendUint(t, x, 10)
	}
	return t.Key("]")
}

// Sum is the fingerprint of t: FNV-1a 64 over its bytes (the hash/fnv
// New64a parameters), as 16 lower-case hexadecimal digits.
func (t Text) Sum() string {
	h := uint64(14695981039346656037)
	for _, c := range t {
		h ^= uint64(c)
		h *= 1099511628211
	}
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[h&15]
		h >>= 4
	}
	return string(hex[:])
}
