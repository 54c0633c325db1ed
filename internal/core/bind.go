package core

import (
	"fmt"

	"cosim/internal/asm"
	"cosim/internal/sim"
)

// Direction says which way data flows through a variable binding.
type Direction int

const (
	// ToSystemC: the guest writes the variable, the kernel reads it and
	// delivers to an iss_in port (paper: breakpoint on the line that
	// immediately follows the store).
	ToSystemC Direction = iota
	// ToISS: the kernel pokes the variable before the guest reads it,
	// from an iss_out port (paper: breakpoint on the very line
	// containing the read).
	ToISS
)

// VarBinding associates a guest program variable with a SystemC ISS
// port, plus the source location where the breakpoint goes — the
// programming model of §3.2. The breakpoint may be named either by a
// source file:line (the paper's pragma flow) or by an assembly label.
type VarBinding struct {
	Port string    // iss_in / iss_out port name
	Var  string    // guest symbol of the variable
	Size int       // variable size in bytes
	Dir  Direction // data flow direction

	// Breakpoint location: Label, or File+Line.
	Label string
	File  string
	Line  int

	// Watch selects the watchpoint binding mode (extension): instead of
	// a code breakpoint on a source line, a write watchpoint (gdb Z2)
	// is set on the variable itself, so the transfer triggers on the
	// store regardless of where in the program it happens. Only valid
	// for Dir == ToSystemC.
	Watch bool
}

// binding is a resolved VarBinding.
type binding struct {
	spec     VarBinding
	varAddr  uint32
	bpAddr   uint32
	inPort   *sim.IssIn  // Dir == ToSystemC
	outPort  *sim.IssOut // Dir == ToISS
	consumed uint64      // outPort.Writes() already transferred
}

// resolveBindings turns specs into concrete addresses and kernel ports.
// Ports are created in the kernel's ISS port registry if absent. The
// first map is keyed by breakpoint address, the second (watch-mode
// bindings) by variable address.
func resolveBindings(k *sim.Kernel, im *asm.Image, specs []VarBinding) (map[uint32]*binding, map[uint32]*binding, error) {
	out := make(map[uint32]*binding, len(specs))
	watch := make(map[uint32]*binding)
	for _, s := range specs {
		varAddr, ok := im.Symbol(s.Var)
		if !ok {
			return nil, nil, fmt.Errorf("core: binding %q: undefined guest variable %q", s.Port, s.Var)
		}
		if s.Watch {
			if s.Dir != ToSystemC {
				return nil, nil, fmt.Errorf("core: binding %q: watch mode requires Dir == ToSystemC", s.Port)
			}
			if s.Size <= 0 {
				return nil, nil, fmt.Errorf("core: binding %q: bad size %d", s.Port, s.Size)
			}
			if _, dup := watch[varAddr]; dup {
				return nil, nil, fmt.Errorf("core: two watch bindings share variable %#x", varAddr)
			}
			watch[varAddr] = &binding{spec: s, varAddr: varAddr, inPort: issIn(k, s.Port)}
			continue
		}
		var bpAddr uint32
		switch {
		case s.Label != "":
			bpAddr, ok = im.Symbol(s.Label)
			if !ok {
				return nil, nil, fmt.Errorf("core: binding %q: undefined label %q", s.Port, s.Label)
			}
		case s.File != "":
			if s.Dir == ToSystemC {
				// Break at the line immediately following the store.
				bpAddr, ok = im.NextLineAddr(s.File, s.Line)
			} else {
				// Break at the line containing the read.
				bpAddr, ok = im.AddrOfLine(s.File, s.Line)
			}
			if !ok {
				return nil, nil, fmt.Errorf("core: binding %q: no code at %s:%d", s.Port, s.File, s.Line)
			}
		default:
			return nil, nil, fmt.Errorf("core: binding %q: no breakpoint location", s.Port)
		}
		if s.Size <= 0 {
			return nil, nil, fmt.Errorf("core: binding %q: bad size %d", s.Port, s.Size)
		}
		if _, dup := out[bpAddr]; dup {
			return nil, nil, fmt.Errorf("core: two bindings share breakpoint address %#x", bpAddr)
		}
		b := &binding{spec: s, varAddr: varAddr, bpAddr: bpAddr}
		if s.Dir == ToSystemC {
			b.inPort = issIn(k, s.Port)
		} else {
			b.outPort = issOut(k, s.Port)
		}
		out[bpAddr] = b
	}
	return out, watch, nil
}

// issIn returns the kernel's iss_in port of that name, created if absent.
func issIn(k *sim.Kernel, name string) *sim.IssIn {
	if p, ok := k.IssInPort(name); ok {
		return p
	}
	return k.NewIssIn(name)
}

// issOut returns the kernel's iss_out port of that name, created if absent.
func issOut(k *sim.Kernel, name string) *sim.IssOut {
	if p, ok := k.IssOutPort(name); ok {
		return p
	}
	return k.NewIssOut(name)
}
