package header

import (
	"fmt"
	"strconv"
	"strings"
)

// FieldByName returns the field whose OpenFlow 1.0 name (as String prints
// it) is name.
func FieldByName(name string) (FieldID, bool) {
	for f := FieldID(0); f < NumFields; f++ {
		if fieldNames[f] == name {
			return f, true
		}
	}
	return 0, false
}

// ParseValue parses one literal value of field f: an IPv4 dotted quad,
// 0x-prefixed hex, or decimal. A value wider than f is an error, never
// truncated. This is the one match-literal grammar: rule specs (HTTP, WAL,
// traces), policy predicates and probegen input all parse through it.
func ParseValue(f FieldID, s string) (uint64, error) {
	var v uint64
	if strings.Count(s, ".") == 3 {
		for i, part := range strings.SplitN(s, ".", 4) {
			b, err := strconv.ParseUint(part, 10, 8)
			if err != nil {
				return 0, fmt.Errorf("bad address %q", s)
			}
			v |= b << uint(24-8*i)
		}
	} else {
		var err error
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			v, err = strconv.ParseUint(s[2:], 16, 64)
		} else {
			v, err = strconv.ParseUint(s, 10, 64)
		}
		if err != nil {
			return 0, fmt.Errorf("bad value %q", s)
		}
	}
	if v&^widthMask(f) != 0 {
		return 0, fmt.Errorf("value %q does not fit %s (%d bits)", s, f, Width(f))
	}
	return v, nil
}
