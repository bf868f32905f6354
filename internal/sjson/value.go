// Package sjson implements a self-contained JSON document model, tokenizer,
// recursive-descent parser, and serializer.
//
// It plays the role of Jackson in the paper's evaluation: the conventional
// "parse the whole string into a tree, then navigate" baseline whose cost
// dominates query execution on raw JSON data. The package is deliberately
// independent of encoding/json so that the reproduction controls every byte
// of parsing work that the engine meters.
package sjson

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind identifies the type of a JSON value.
type Kind uint8

// The JSON value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindNumber
	KindString
	KindArray
	KindObject
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	case KindArray:
		return "array"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Member is a single key/value pair of a JSON object. Objects preserve the
// member order of the input document, matching how warehouse JSON strings
// round-trip through parse and serialize.
type Member struct {
	Key   string
	Value *Value
}

// Value is a parsed JSON value. The zero value is JSON null.
type Value struct {
	kind    Kind
	boolVal bool
	numVal  float64
	// numRaw preserves the exact numeric literal so serialization does not
	// lose precision on integers wider than float64's mantissa.
	numRaw string
	strVal string
	arrVal []*Value
	objVal []Member
	objIdx map[string]int
}

// Null returns the JSON null value.
func Null() *Value { return &Value{kind: KindNull} }

// Bool returns a JSON boolean value.
func Bool(b bool) *Value { return &Value{kind: KindBool, boolVal: b} }

// Number returns a JSON number value.
func Number(f float64) *Value { return &Value{kind: KindNumber, numVal: f} }

// Int returns a JSON number value holding an integer literal.
func Int(i int64) *Value {
	return &Value{kind: KindNumber, numVal: float64(i), numRaw: strconv.FormatInt(i, 10)}
}

// String returns a JSON string value.
func String(s string) *Value { return &Value{kind: KindString, strVal: s} }

// Array returns a JSON array with the given elements.
func Array(elems ...*Value) *Value { return &Value{kind: KindArray, arrVal: elems} }

// Object returns an empty JSON object.
func Object() *Value { return &Value{kind: KindObject} }

// Kind reports the value's kind.
func (v *Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is JSON null (or the value is nil).
func (v *Value) IsNull() bool { return v == nil || v.kind == KindNull }

// BoolVal returns the boolean payload; valid only for KindBool.
func (v *Value) BoolVal() bool { return v.boolVal }

// NumberVal returns the numeric payload; valid only for KindNumber.
func (v *Value) NumberVal() float64 { return v.numVal }

// StringVal returns the string payload; valid only for KindString.
func (v *Value) StringVal() string { return v.strVal }

// Len returns the number of elements (array) or members (object); 0 otherwise.
func (v *Value) Len() int {
	switch v.kind {
	case KindArray:
		return len(v.arrVal)
	case KindObject:
		return len(v.objVal)
	default:
		return 0
	}
}

// Index returns the i-th array element, or nil if out of range or not an array.
func (v *Value) Index(i int) *Value {
	if v == nil || v.kind != KindArray || i < 0 || i >= len(v.arrVal) {
		return nil
	}
	return v.arrVal[i]
}

// Elements returns the array elements slice; nil for non-arrays.
func (v *Value) Elements() []*Value {
	if v == nil || v.kind != KindArray {
		return nil
	}
	return v.arrVal
}

// Members returns the object members in document order; nil for non-objects.
func (v *Value) Members() []Member {
	if v == nil || v.kind != KindObject {
		return nil
	}
	return v.objVal
}

// Get returns the member value for key, or nil if absent or not an object.
func (v *Value) Get(key string) *Value {
	if v == nil || v.kind != KindObject {
		return nil
	}
	if v.objIdx != nil {
		if i, ok := v.objIdx[key]; ok {
			return v.objVal[i].Value
		}
		return nil
	}
	for _, m := range v.objVal {
		if m.Key == key {
			return m.Value
		}
	}
	return nil
}

// Has reports whether the object has a member with the given key.
func (v *Value) Has(key string) bool { return v.Get(key) != nil }

// Set adds or replaces an object member. It panics if v is not an object.
func (v *Value) Set(key string, val *Value) *Value {
	if v.kind != KindObject {
		panic("sjson: Set on non-object value")
	}
	if v.objIdx != nil {
		if i, ok := v.objIdx[key]; ok {
			v.objVal[i].Value = val
			return v
		}
	} else {
		for i, m := range v.objVal {
			if m.Key == key {
				v.objVal[i].Value = val
				return v
			}
		}
	}
	v.objVal = append(v.objVal, Member{Key: key, Value: val})
	if v.objIdx != nil {
		v.objIdx[key] = len(v.objVal) - 1
	} else if len(v.objVal) > smallObjectThreshold {
		v.buildIndex()
	}
	return v
}

// Append appends an element to an array. It panics if v is not an array.
func (v *Value) Append(val *Value) *Value {
	if v.kind != KindArray {
		panic("sjson: Append on non-array value")
	}
	v.arrVal = append(v.arrVal, val)
	return v
}

// Keys returns the object's keys in document order.
func (v *Value) Keys() []string {
	if v == nil || v.kind != KindObject {
		return nil
	}
	keys := make([]string, len(v.objVal))
	for i, m := range v.objVal {
		keys[i] = m.Key
	}
	return keys
}

// SortedKeys returns the object's keys in ascending order.
func (v *Value) SortedKeys() []string {
	keys := v.Keys()
	sort.Strings(keys)
	return keys
}

// smallObjectThreshold is the member count above which objects maintain a
// key→index map. Small objects do a linear scan, which is faster in practice
// and allocates nothing.
const smallObjectThreshold = 8

func (v *Value) buildIndex() {
	idx := make(map[string]int, len(v.objVal))
	for i, m := range v.objVal {
		if _, dup := idx[m.Key]; !dup {
			idx[m.Key] = i
		}
	}
	v.objIdx = idx
}

// Equal reports deep structural equality of two values. Numbers compare by
// float64 value; object member order is ignored.
func Equal(a, b *Value) bool {
	if a == nil || b == nil {
		return a.IsNull() && b.IsNull()
	}
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case KindNull:
		return true
	case KindBool:
		return a.boolVal == b.boolVal
	case KindNumber:
		return a.numVal == b.numVal || (math.IsNaN(a.numVal) && math.IsNaN(b.numVal))
	case KindString:
		return a.strVal == b.strVal
	case KindArray:
		if len(a.arrVal) != len(b.arrVal) {
			return false
		}
		for i := range a.arrVal {
			if !Equal(a.arrVal[i], b.arrVal[i]) {
				return false
			}
		}
		return true
	case KindObject:
		if len(a.objVal) != len(b.objVal) {
			return false
		}
		// Member order across distinct keys is ignored; duplicate keys
		// (legal JSON, undefined semantics) compare as per-key sequences in
		// document order, so a document always equals its own round trip.
		return keyedSeq(a).equal(keyedSeq(b))
	}
	return false
}

type memberSeqs map[string][]*Value

func keyedSeq(v *Value) memberSeqs {
	m := make(memberSeqs, len(v.objVal))
	for _, member := range v.objVal {
		m[member.Key] = append(m[member.Key], member.Value)
	}
	return m
}

func (a memberSeqs) equal(b memberSeqs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, avs := range a {
		bvs, ok := b[k]
		if !ok || len(avs) != len(bvs) {
			return false
		}
		for i := range avs {
			if !Equal(avs[i], bvs[i]) {
				return false
			}
		}
	}
	return true
}

// Scalar returns the value rendered the way Hive's get_json_object renders
// leaf results: strings verbatim (unquoted), numbers and booleans as their
// literals, and composite values as compact JSON. Null returns "".
func (v *Value) Scalar() string {
	if v.IsNull() {
		return ""
	}
	switch v.kind {
	case KindBool:
		if v.boolVal {
			return "true"
		}
		return "false"
	case KindNumber:
		return v.numberLiteral()
	case KindString:
		return v.strVal
	default:
		var sb strings.Builder
		writeCompact(&sb, v)
		return sb.String()
	}
}

func (v *Value) numberLiteral() string {
	if v.numRaw != "" {
		return v.numRaw
	}
	if v.numVal == math.Trunc(v.numVal) && math.Abs(v.numVal) < 1e15 {
		return strconv.FormatInt(int64(v.numVal), 10)
	}
	return strconv.FormatFloat(v.numVal, 'g', -1, 64)
}
