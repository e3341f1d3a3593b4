package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"acr/internal/checksum"
	"acr/internal/core"
)

// setupMetric records the median set-up: setup_s in CPU seconds (the
// work, which host steal does not inflate), and the wall time beside it.
func (o *outcome) setupMetric(s setupSamples) error {
	v, n, err := percentile(s.cpu, 0.5)
	if err != nil {
		return fmt.Errorf("setup_s: %w", err)
	}
	o.e2e("setup_s", "setup_s", "s", v, n)
	if v, n, err = percentile(s.wall, 0.5); err == nil {
		o.e2e("setup_wall_s", "", "s", v, n)
	}
	return nil
}

// rssMetric records the process's peak resident set (VmHWM).
func (o *outcome) rssMetric() {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return // no procfs: the contract check reports the missing metric
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				o.e2e("peak_rss_mb", "peak_rss_mb", "MiB", kb/1024, 1)
			}
			return
		}
	}
}

// statsLayers records the controller's own counters, per committed round
// where the count grows with rounds.
func (o *outcome) statsLayers(s core.Stats, rounds float64) {
	n := int(rounds)
	o.layer("runtime.pack_fast_path_frac", "fraction", ratio(float64(s.PackFastPath), float64(s.PackFastPath+s.PackSlowPath)), int(s.PackFastPath+s.PackSlowPath))
	o.layer("runtime.dirty_ratio", "fraction", ratio(float64(s.CaptureChunksPacked), float64(s.CaptureChunksPacked+s.CaptureChunksReused)), n)
	o.layer("runtime.chunks_reused_per_round", "count", ratio(float64(s.CaptureChunksReused), rounds), n)
	o.layer("ckptstore.pool_hit_ratio", "fraction", ratio(float64(s.Pool.Hits), float64(s.Pool.Gets)), int(s.Pool.Gets))
	o.layer("ckptstore.hot_bytes_per_round", "bytes", ratio(float64(s.Store.BytesWritten), rounds), n)
	o.layer("core.exchange_frames_per_round", "count", ratio(float64(s.ExchangeFrames), rounds), n)
	o.layer("core.exchange_retries_per_round", "count", ratio(float64(s.ExchangeRetries), rounds), n)
	o.layer("core.exchange_chunk_reuse_ratio", "fraction",
		ratio(float64(s.ExchangeChunksReused), float64(s.ExchangeChunksShipped+s.ExchangeChunksReused)), n)
	o.layer("core.rounds_aborted", "count", float64(s.AbortedRounds), n)
}

// addStats accumulates the counters statsLayers reads.
func addStats(sum *core.Stats, s core.Stats) {
	sum.Checkpoints += s.Checkpoints
	sum.AbortedRounds += s.AbortedRounds
	sum.PackFastPath += s.PackFastPath
	sum.PackSlowPath += s.PackSlowPath
	sum.CaptureChunksPacked += s.CaptureChunksPacked
	sum.CaptureChunksReused += s.CaptureChunksReused
	sum.Pool.Gets += s.Pool.Gets
	sum.Pool.Hits += s.Pool.Hits
	sum.Store.BytesWritten += s.Store.BytesWritten
	sum.ExchangeFrames += s.ExchangeFrames
	sum.ExchangeRetries += s.ExchangeRetries
	sum.ExchangeChunksShipped += s.ExchangeChunksShipped
	sum.ExchangeChunksReused += s.ExchangeChunksReused
}

// jobAccount is what the acrd workload knows about its jobs: the traced
// jobs' checkpoints, and the journal every job of the daemon wrote.
type jobAccount struct {
	jobs, checkpoints           int
	journalJobs, journalRecords int
	journalBytes                int64
}

// jobLayers records the daemon-job counts; zero (n=0) for workloads that
// run no daemon.
func (o *outcome) jobLayers(j *jobAccount) {
	if j == nil {
		j = &jobAccount{}
	}
	o.layer("core.checkpoints_per_job", "count", ratio(float64(j.checkpoints), float64(j.jobs)), j.jobs)
	o.layer("acrd.journal_records_per_job", "count", ratio(float64(j.journalRecords), float64(j.journalJobs)), j.journalJobs)
	o.layer("acrd.journal_bytes_per_job", "bytes", ratio(float64(j.journalBytes), float64(j.journalJobs)), j.journalJobs)
}

// diskLayers records the durable tier's traced Put/Get latencies. A tail
// with too few samples is noted, not reported.
func (o *outcome) diskLayers(ops storeOps) {
	if len(ops.puts) == 0 && len(ops.gets) == 0 {
		return
	}
	o.optionalPct("ckptstore.disk_put_ms_p50", ms(ops.puts), 0.5)
	var putTime time.Duration
	for _, d := range ops.puts {
		putTime += d
	}
	if putTime > 0 {
		o.layer("ckptstore.disk_put_mb_per_s", "MB/s", float64(ops.putBytes)/putTime.Seconds()/1e6, len(ops.puts))
	}
	o.optionalPct("ckptstore.disk_get_ms_p50", ms(ops.gets), 0.5)
}

// optionalPct records a per-layer percentile (milliseconds) when there are
// enough samples for it, and notes why not otherwise.
func (o *outcome) optionalPct(name string, xs []float64, p float64) {
	if len(xs) == 0 {
		return
	}
	v, n, err := percentile(xs, p)
	if err != nil {
		o.notef("%s: not reported: %v", name, err)
		return
	}
	o.layer(name, "ms", v, n)
}

// attribute splits the traced mean round into the layers the benchmark
// can cost — measured pack time plus replayed rates × the bytes each layer
// handled — and reports what is left as core.round_residual_ms: consensus
// cut, scheduling, link wait, the flush clone, and anything unmodelled.
// Busy times of task-parallel work are divided by the workers that share
// it (GOMAXPROCS, at most one per task).
func (o *outcome) attribute(spec commitSpec, s core.Stats, w roundWindow, packMs float64, rp *replayResult) {
	rounds := float64(s.Checkpoints)
	perReplica := spec.sh.nodes * spec.sh.tasks
	par := float64(min(rp.procs, perReplica))
	sumBytes := ratio(float64(s.CaptureChunksPacked), rounds) * checksum.DefaultChunkSize
	sumMs := sumBytes / float64(rp.stateBytes) * msOf(rp.sum1) / par
	cmpMs := float64(perReplica) * msOf(rp.memCompare) / par
	putMs := float64(2*perReplica) * msOf(rp.memPut) / par
	pack := packMs / par
	round := mean(ms(w.lat))
	attributed := pack + sumMs + cmpMs + putMs
	o.notef("attribution per round (ms, over %d traced rounds, %g-way parallel): round %.4f = pack %.4f (measured) + sums %.4f + compare %.4f + put %.4f (replay rate × bytes) + residual %.4f",
		len(w.lat), par, round, pack, sumMs, cmpMs, putMs, round-attributed)
	o.layer("core.attributed_ms_per_round", "ms", attributed, len(w.lat))
	o.layer("core.round_residual_ms", "ms", round-attributed, len(w.lat))
}
