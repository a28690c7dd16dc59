package sim

// Pending reports the number of events waiting to run, counting every lane
// entry (not just each lane's head).
func (s *Scheduler) Pending() int {
	n := len(s.events) + s.deferred
	if s.slotFull {
		n++
	}
	return n
}
