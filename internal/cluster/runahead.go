package cluster

import "pace/internal/pairgen"

const (
	// runAheadFloor is the fewest batches the run-ahead buffer holds: one for
	// the consumer to work on while the producer fills the other.
	runAheadFloor = 2
	// slabBatches is how many batches one lazily allocated slab of the
	// run-ahead buffer holds.
	slabBatches = 256
)

// runAheadBatches bounds the run-ahead buffer over an input of n bases, in
// batches of size pairs: ⌈n/4⌉ pairs, never fewer than runAheadFloor batches.
// A pair is 20 B, so the buffer costs at most 5 B per input base, a tenth of
// the forest's. It must be that deep because alignment comes early, in one
// burst, while the deepest nodes' pairs are judged: a buffer of a few batches
// fills at once and hides none of the drain behind it.
func runAheadBatches(n int64, size int) int {
	pairs := (n + 3) / 4
	return max(runAheadFloor, int((pairs+int64(size)-1)/int64(size)))
}

// pairDrain hands the sequential engine its generator's batches, in order and
// cut exactly as Next cuts them. With one worker, next calls Next inline. With
// more, a producer goroutine drains the generator concurrently with the
// consumer's skip tests, alignments and merges, into a run-ahead buffer of at
// most runAheadBatches batches. The pair sequence does not depend on the
// union-find, so what the consumer sees does not depend on workers.
//
// The producer owns the generator until join returns, and never polls the
// run's context: the consumer polls it once per batch, as it would with no
// producer, and join releases a producer blocked on a full buffer.
type pairDrain struct {
	gen  *pairgen.Generator
	size int
	// cur is the batch the consumer holds.
	cur []pairgen.Pair
	// ra is the zero value when no producer runs.
	ra runAhead
}

// runAhead is what the producer shares with the consumer. Every batch is
// being filled, in full, held by the consumer or in free. full and free are
// both sized to depth, the most batches that ever exist, so neither send
// blocks: the producer waits only for a batch to come back.
type runAhead struct {
	// full carries filled batches in generation order; the producer closes it
	// when the generator is exhausted.
	full chan []pairgen.Pair
	// free carries the batches the consumer is done with back to be refilled.
	free chan []pairgen.Pair
	// stop is closed by join to release the producer; done is closed when the
	// producer has returned.
	stop, done chan struct{}
}

// newPairDrain starts draining gen in batches of size pairs, on a producer
// goroutine of its own when workers > 1. The caller must join the drain on
// every return path.
func newPairDrain(gen *pairgen.Generator, size, depth, workers int) pairDrain {
	d := pairDrain{gen: gen, size: size}
	if workers <= 1 {
		d.cur = make([]pairgen.Pair, 0, size)
		return d
	}
	d.ra = runAhead{
		full: make(chan []pairgen.Pair, depth),
		free: make(chan []pairgen.Pair, depth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go d.ra.produce(gen, size, depth)
	return d
}

// next returns the next batch, empty once the generator is exhausted. The
// batch next returned before goes back to the drain.
func (d *pairDrain) next() []pairgen.Pair {
	if d.ra.full == nil {
		d.cur = d.gen.Next(d.cur[:0], d.size)
		return d.cur
	}
	if d.cur != nil {
		d.ra.free <- d.cur
	}
	d.cur = <-d.ra.full
	return d.cur
}

// join releases the producer and waits for it to return; the generator is
// the caller's again. Calls after the first, and calls without a producer,
// do nothing.
func (d *pairDrain) join() {
	if d.ra.done == nil {
		return
	}
	close(d.ra.stop)
	<-d.ra.done
	d.ra.stop, d.ra.done = nil, nil
}

// produce fills batches until the generator is exhausted or stop is closed.
// It refills a batch the consumer has handed back if there is one, else
// carves a new one from a slab, allocating a slab only once the last is used
// up and fewer than depth batches exist, else waits for one to come back.
func (ra runAhead) produce(gen *pairgen.Generator, size, depth int) {
	defer close(ra.done)
	defer close(ra.full)
	var slab []pairgen.Pair
	made := 0
	//pacelint:allow ctxpoll the consumer polls the context once per batch; join closes stop to release this loop
	for {
		var b []pairgen.Pair
		select {
		case <-ra.stop:
			return
		case b = <-ra.free:
		default:
			if len(slab) == 0 && made < depth {
				n := min(slabBatches, depth-made)
				slab = make([]pairgen.Pair, n*size)
				made += n
			}
			if len(slab) == 0 {
				select {
				case <-ra.stop:
					return
				case b = <-ra.free:
				}
			} else {
				b, slab = slab[:0:size], slab[size:]
			}
		}
		b = gen.Next(b[:0], size)
		if len(b) == 0 {
			return
		}
		ra.full <- b
	}
}
