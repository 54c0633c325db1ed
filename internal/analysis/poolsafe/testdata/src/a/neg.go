package a

import (
	"bufio"

	"cosim/internal/core"
)

func consume([]byte) {}

// ok is the canonical decode/deliver/release shape.
func ok(r *bufio.Reader) {
	m, err := core.ReadMessage(r)
	if err != nil {
		return
	}
	consume(m.Data)
	m.Release()
}

// deferred releases via defer before using the payload.
func deferred(r *bufio.Reader) error {
	m, err := core.ReadMessage(r)
	if err != nil {
		return err
	}
	defer m.Release()
	consume(m.Data)
	return nil
}

// inboxAppend is the frame-intake shape: appending hands ownership to
// whoever handles the queued frames.
func inboxAppend(r *bufio.Reader, inbox *[]core.Message) error {
	m, err := core.ReadMessage(r)
	if err != nil {
		return err
	}
	m.Cycles = 3
	*inbox = append(*inbox, m)
	return nil
}

// handBack transfers ownership to the caller.
func handBack(r *bufio.Reader) (core.Message, error) {
	m, err := core.ReadMessage(r)
	return m, err
}

// sendOn transfers ownership over a channel.
func sendOn(r *bufio.Reader, ch chan core.Message) {
	m, _ := core.ReadMessage(r)
	ch <- m
}

// capture is the drain shape: a scheduled callback releases the local
// copy, so the message escapes sequential reasoning here.
func capture(r *bufio.Reader, callAt func(func())) {
	m, _ := core.ReadMessage(r)
	msg := m
	callAt(func() {
		consume(msg.Data)
		msg.Release()
	})
}

// branchRelease releases exactly once on every path.
func branchRelease(r *bufio.Reader, early bool) {
	m, _ := core.ReadMessage(r)
	if early {
		m.Release()
		return
	}
	consume(m.Data)
	m.Release()
}

// reassign decodes a fresh message into the same variable after the
// first is released.
func reassign(r *bufio.Reader) {
	m, err := core.ReadMessage(r)
	if err != nil {
		return
	}
	m.Release()
	m, err = core.ReadMessage(r)
	if err != nil {
		return
	}
	m.Release()
}

// drainLoop releases one message per iteration; the range variable is
// fresh each pass.
func drainLoop(msgs []core.Message) {
	for _, m := range msgs {
		consume(m.Data)
		m.Release()
	}
}

// switchRelease releases in every arm.
func switchRelease(r *bufio.Reader) {
	m, _ := core.ReadMessage(r)
	switch m.Type {
	case core.MsgWrite:
		consume(m.Data)
		m.Release()
	default:
		m.Release()
	}
}

// suppressed exercises the documented escape hatch.
func suppressed(r *bufio.Reader) {
	//cosimvet:ignore poolsafe fixture exercises the suppression directive
	m, err := core.ReadMessage(r)
	if err != nil {
		return
	}
	consume(m.Data)
}
