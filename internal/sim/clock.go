package sim

// Clock is a periodic boolean signal source, equivalent to sc_clock.
// It drives a Signal[bool] and exposes positive and negative edge events.
type Clock struct {
	k      *Kernel
	name   string
	period Time
	sig    *Signal[bool]
	pos    *Event
	neg    *Event
	drv    *Event // internal self-notification
	ticks  uint64
}

// NewClock creates a clock with the given period and a 50% duty cycle.
// The clock starts low; the first positive edge occurs at period/2. The
// period must be an even number of picoseconds, at least 2ps, so both
// half periods are whole picoseconds.
func NewClock(k *Kernel, name string, period Time) *Clock {
	if period < 2 || period%2 != 0 {
		panic("sim: clock period must be an even number of picoseconds, at least 2ps")
	}
	c := &Clock{
		k: k, name: name, period: period,
		sig: NewSignal[bool](k, name),
		pos: k.NewEvent(name + ".pos"),
		neg: k.NewEvent(name + ".neg"),
		drv: k.NewEvent(name + ".drv"),
	}
	half := period / 2
	tick := func() {
		if c.sig.Read() {
			c.sig.Write(false)
			c.neg.NotifyDelta()
		} else {
			c.sig.Write(true)
			c.pos.NotifyDelta()
			c.ticks++
		}
		c.drv.NotifyAfter(half)
	}
	k.MethodNoInit(name+".gen", tick, c.drv)
	c.drv.NotifyAfter(half)
	return c
}

// Period returns the clock period.
func (c *Clock) Period() Time { return c.period }

// Signal returns the underlying boolean signal.
func (c *Clock) Signal() *Signal[bool] { return c.sig }

// Pos returns the positive-edge event.
func (c *Clock) Pos() *Event { return c.pos }

// Neg returns the negative-edge event.
func (c *Clock) Neg() *Event { return c.neg }

// Ticks returns the number of positive edges generated so far.
func (c *Clock) Ticks() uint64 { return c.ticks }
