package harness

import (
	"reflect"
	"testing"

	"shelfsim/internal/config"
)

// TestFingerprintSensitiveToEveryField mutates each Config field in turn
// (recursing into the nested substrate configs) and requires the
// fingerprint to change. A field the fingerprint misses would alias
// cache entries in the harness, as keying on Name once did.
func TestFingerprintSensitiveToEveryField(t *testing.T) {
	base := config.Base64(4)
	baseFP := base.Fingerprint()
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		c := base
		field := reflect.ValueOf(&c).Elem().Field(i)
		if !mutateValue(field) {
			t.Fatalf("field %s: no mutable leaf of kind %s", rt.Field(i).Name, field.Kind())
		}
		if got := c.Fingerprint(); got == baseFP {
			t.Errorf("mutating field %s did not change the fingerprint: cache keys would alias",
				rt.Field(i).Name)
		}
	}
}

// mutateValue changes v to a different value, recursing into structs until
// a settable leaf flips. Reports whether anything changed.
func mutateValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "?")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanSet() && mutateValue(f) {
				return true
			}
		}
		return false
	default:
		return false
	}
	return true
}
