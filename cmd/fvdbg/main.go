// fvdbg is a minimal interactive remote debugger speaking the GDB
// remote serial protocol — enough to poke at an ISS served by fvrun
// -gdb or by any stub in this repository.
//
// Usage:
//
//	fvdbg -connect host:port
//
// Commands: regs, r <n>, m <addr> <len>, b <addr>, d <addr>, s, c, q.
// A 'c' runs until the target stops; Ctrl-C breaks in on it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"cosim/internal/gdb"
	"cosim/internal/isa"
)

func main() {
	addr := flag.String("connect", "", "stub address (host:port)")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "fvdbg: -connect is required")
		os.Exit(2)
	}
	conn, err := net.Dial("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	cl, err := gdb.NewClient(conn)
	if err != nil {
		fatal(err)
	}
	if feat, err := cl.QuerySupported(); err == nil {
		fmt.Println("connected:", feat)
	}

	in := bufio.NewScanner(os.Stdin)
	fmt.Print("(fvdbg) ")
	for in.Scan() {
		fields := strings.Fields(in.Text())
		if len(fields) == 0 {
			fmt.Print("(fvdbg) ")
			continue
		}
		switch fields[0] {
		case "q", "quit":
			_ = cl.Kill()
			return
		case "regs":
			regs, err := cl.ReadRegisters()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			for i, v := range regs.GPR {
				fmt.Printf("%-5s %08x  ", isa.RegName(uint8(i)), v)
				if i%4 == 3 {
					fmt.Println()
				}
			}
			fmt.Printf("pc    %08x  cycles %d\n", regs.PC, regs.Cycles)
		case "r":
			if len(fields) < 2 {
				fmt.Println("usage: r <n>")
				break
			}
			n, _ := strconv.Atoi(fields[1])
			v, err := cl.ReadRegister(n)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("%08x\n", v)
		case "m":
			if len(fields) < 3 {
				fmt.Println("usage: m <hexaddr> <len>")
				break
			}
			a, _ := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 32)
			n, _ := strconv.Atoi(fields[2])
			data, err := cl.ReadMemory(uint32(a), n)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			fmt.Printf("% x\n", data)
		case "b":
			a, _ := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 32)
			fmt.Println(orOK(cl.SetBreakpoint(uint32(a))))
		case "d":
			a, _ := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 32)
			fmt.Println(orOK(cl.ClearBreakpoint(uint32(a))))
		case "s":
			ev, err := cl.Step()
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printStop(cl, ev)
		case "c":
			ev, err := continueUntilStop(cl)
			if err != nil {
				fmt.Println("error:", err)
				break
			}
			printStop(cl, ev)
		default:
			fmt.Println("commands: regs, r <n>, m <addr> <len>, b <addr>, d <addr>, s, c (Ctrl-C breaks in), q")
		}
		fmt.Print("(fvdbg) ")
	}
}

// continueUntilStop resumes the target and waits, with no time limit,
// for its stop; a Ctrl-C meanwhile breaks in.
func continueUntilStop(cl *gdb.Client) (*gdb.StopEvent, error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	done := make(chan struct{})
	defer func() {
		signal.Stop(sig)
		close(done)
	}()
	go func() {
		select {
		case <-sig:
			_ = cl.Interrupt()
		case <-done:
		}
	}()
	return cl.Continue()
}

func printStop(cl *gdb.Client, ev *gdb.StopEvent) {
	if ev.Exited {
		fmt.Printf("exited with code %d\n", ev.ExitCode)
		return
	}
	pc, err := cl.ReadPC()
	if err != nil {
		fmt.Println("stopped (sig", ev.Signal, ")")
		return
	}
	word, _ := cl.ReadMemory(pc, 4)
	dis := ""
	if len(word) == 4 {
		w := uint32(word[0]) | uint32(word[1])<<8 | uint32(word[2])<<16 | uint32(word[3])<<24
		dis = isa.Disassemble(w)
	}
	fmt.Printf("stopped at %08x: %s (sig %d)\n", pc, dis, ev.Signal)
}

func orOK(err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "ok"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fvdbg:", err)
	os.Exit(1)
}
