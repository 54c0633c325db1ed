package dev

import (
	"bytes"
	"fmt"
	"io"
)

// Console register offsets.
const (
	ConsoleTx     = 0x00 // WO: write a character
	ConsoleStatus = 0x04 // RO: always 1 (ready)
	ConsoleSize   = 0x08
)

// Console is a write-only debug character device. Output is captured in
// a buffer (readable by tests and the host) and optionally mirrored to
// an io.Writer.
type Console struct {
	buf    bytes.Buffer
	mirror io.Writer
}

// NewConsole creates a console; mirror may be nil.
func NewConsole(mirror io.Writer) *Console {
	return &Console{mirror: mirror}
}

// Name implements iss.Device.
func (c *Console) Name() string { return "console" }

// Size implements iss.Device.
func (c *Console) Size() uint32 { return ConsoleSize }

// Read implements iss.Device.
func (c *Console) Read(off uint32, size int) (uint32, error) {
	switch off {
	case ConsoleStatus:
		return 1, nil
	default:
		return 0, fmt.Errorf("console: read of unknown register %#x", off)
	}
}

// Write implements iss.Device.
func (c *Console) Write(off uint32, size int, v uint32) error {
	switch off {
	case ConsoleTx:
		c.buf.WriteByte(byte(v))
		if c.mirror != nil {
			_, _ = c.mirror.Write([]byte{byte(v)})
		}
		return nil
	default:
		return fmt.Errorf("console: write to unknown register %#x", off)
	}
}

// Output returns everything written so far.
func (c *Console) Output() string { return c.buf.String() }

// Clear discards captured output.
func (c *Console) Clear() { c.buf.Reset() }
