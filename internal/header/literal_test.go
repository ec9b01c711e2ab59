package header

import "testing"

func TestFieldByName(t *testing.T) {
	for f := FieldID(0); f < NumFields; f++ {
		if got, ok := FieldByName(f.String()); !ok || got != f {
			t.Errorf("FieldByName(%q) = %v, %v", f.String(), got, ok)
		}
	}
	if _, ok := FieldByName("nw_bogus"); ok {
		t.Error("unknown field name accepted")
	}
}

func TestParseValue(t *testing.T) {
	for _, tc := range []struct {
		f    FieldID
		in   string
		want uint64
	}{
		{TPDst, "80", 80},
		{TPDst, "010", 10},
		{EthType, "0x800", 0x800},
		{EthType, "0XFFFF", 0xffff},
		{IPSrc, "10.0.0.1", 0x0a000001},
		{EthSrc, "0xffffffffffff", 0xffffffffffff},
	} {
		if got, err := ParseValue(tc.f, tc.in); err != nil || got != tc.want {
			t.Errorf("ParseValue(%s, %q) = %d, %v; want %d", tc.f, tc.in, got, err, tc.want)
		}
	}
	for _, tc := range []struct {
		f    FieldID
		in   string
		want string
	}{
		{TPDst, "70000", `value "70000" does not fit tp_dst (16 bits)`},
		{TPDst, "1.2.3.4", `value "1.2.3.4" does not fit tp_dst (16 bits)`},
		{IPSrc, "256.0.0.1", `bad address "256.0.0.1"`},
		{TPDst, "0b101", `bad value "0b101"`},
		{TPDst, "0o17", `bad value "0o17"`},
		{TPDst, "1_000", `bad value "1_000"`},
		{TPDst, "-1", `bad value "-1"`},
		{TPDst, "", `bad value ""`},
	} {
		if _, err := ParseValue(tc.f, tc.in); err == nil || err.Error() != tc.want {
			t.Errorf("ParseValue(%s, %q) error %v, want %q", tc.f, tc.in, err, tc.want)
		}
	}
}
