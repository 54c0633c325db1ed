package core

import (
	"fmt"
	"strconv"
	"strings"

	"cosim/internal/asm"
)

// pragmaPrefix introduces a co-simulation pragma in guest source code.
// §3.2: "it can be made almost completely automatic, by means of
// pragmas. A special pragma, containing the name of the variable, is
// inserted before the line where the breakpoint is to be set. A simple
// filter automatically generates ..." — ParsePragmas is that filter.
const pragmaPrefix = ";#cosim"

// ParsePragmas extracts variable bindings from pragmas in an assembly
// source. A pragma precedes the target statement:
//
//	;#cosim iss_out port=pkt var=pkt_blob size=256
//	    lw   a1, 0(s0)          ; the read the kernel must poke before
//
//	;#cosim iss_in port=csum var=csum_out size=4
//	    sw   a0, 0(s1)          ; the store the kernel collects after
//
// Per the paper's placement rules, iss_out bindings break on the target
// line itself and iss_in bindings on the line immediately following it;
// both fall out of the File/Line binding resolution.
func ParsePragmas(src asm.Source) ([]VarBinding, error) {
	var out []VarBinding
	lines := strings.Split(src.Text, "\n")
	for i, raw := range lines {
		text := strings.TrimSpace(raw)
		if !strings.HasPrefix(text, pragmaPrefix) {
			continue
		}
		lineNo := i + 1
		fields := strings.Fields(strings.TrimPrefix(text, pragmaPrefix))
		if len(fields) == 0 {
			return nil, fmt.Errorf("%s:%d: empty co-simulation pragma", src.Name, lineNo)
		}
		b := VarBinding{File: src.Name, Line: lineNo + 1}
		switch fields[0] {
		case "iss_in":
			b.Dir = ToSystemC
		case "iss_out":
			b.Dir = ToISS
		default:
			return nil, fmt.Errorf("%s:%d: pragma direction must be iss_in or iss_out, got %q",
				src.Name, lineNo, fields[0])
		}
		for _, kv := range fields[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("%s:%d: bad pragma field %q", src.Name, lineNo, kv)
			}
			switch key {
			case "port":
				b.Port = val
			case "var":
				b.Var = val
			case "size":
				n, err := strconv.Atoi(val)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("%s:%d: bad size %q", src.Name, lineNo, val)
				}
				b.Size = n
			case "watch":
				b.Watch = val == "true" || val == "1"
			default:
				return nil, fmt.Errorf("%s:%d: unknown pragma field %q", src.Name, lineNo, key)
			}
		}
		if b.Port == "" || b.Var == "" {
			return nil, fmt.Errorf("%s:%d: pragma needs port= and var=", src.Name, lineNo)
		}
		if b.Size == 0 {
			b.Size = 4
		}
		out = append(out, b)
	}
	return out, nil
}
