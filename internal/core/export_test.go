package core

// Flush delivers everything still buffered in sequence order, used at the
// end of a run when the final micro-flow is partial. It returns the number
// of skbs flushed.
func (r *Reassembler) Flush() int {
	n := 0
	for r.buffered > 0 {
		// Find the queue whose head has the lowest sequence.
		best := -1
		for i, q := range r.queues {
			if len(q) == 0 {
				continue
			}
			if best == -1 || q[0].Seq < r.queues[best][0].Seq {
				best = i
			}
		}
		if best == -1 {
			break
		}
		head := r.queues[best][0]
		r.queues[best] = r.queues[best][1:]
		r.buffered--
		r.expectedSeq = head.EndSeq()
		r.DeliveredSegments += uint64(head.Segs)
		r.deliver(head)
		n++
	}
	return n
}
