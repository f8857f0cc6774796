/* Native CoreSim kernel — a hand-maintained C mirror of the pure-Python
 * event loop in repro.sim.core.CoreSim._run.
 *
 * Contract: repro_coresim_run takes the exact argument tuple that
 * repro.sim.backend.try_run_native assembles (same order, int64 arrays
 * except the int32 row index and the five uint8 arrays), performs the
 * same event loop as CoreSim._run over the packed arrays, and returns
 * the RC_* codes below.
 *
 * Trace columns come in two granularities.  Facts of an instruction's
 * record (kind, FU class, latency override, branch flags, memory and
 * TCA request tables) are held once per row of the compacted trace
 * table and read through the row index: instruction k's kind is
 * kind[row[k]].  The register-edge CSR (re_start, edge_prod,
 * edge_cons) and mem_edge_base depend on an instruction's place in the
 * trace and are indexed by k directly, as is every per-run array.  The cache arrays are the (tags, cnt) pairs each
 * repro.sim.cache._CacheLevel owns; the kernel updates them in place,
 * and repro_cache_warm warms them the way CacheHierarchy.warm_lines
 * does.  The cfg/stats/cstats slot enums mirror the CFG_*, ST_* and
 * CS_* constants in repro/sim/backend.py.  When editing pipeline
 * semantics in CoreSim._run, mirror the change here — the equivalence
 * suite (tests/test_sim_backends.py) catches divergence.
 *
 * Built on demand by repro.sim.backend._build_c_kernel:
 *   cc -O2 -fPIC -shared -o ~/.cache/repro/native/coresim-<sha>.so coresim.c
 * and driven through ctypes (no Python.h; the call releases the GIL).
 */

#include <stdint.h>

typedef int64_t i64;
typedef int32_t i32;
typedef uint8_t u8;

/* cfg[] slots — keep in sync with CFG_* in backend.py */
enum {
    CFG_DISPATCH_W = 0, CFG_ISSUE_W, CFG_COMMIT_W, CFG_ROB, CFG_IQ,
    CFG_LQ, CFG_SQ, CFG_FRONTEND, CFG_COMMIT_LAT, CFG_REDIRECT,
    CFG_LPORTS, CFG_SPORTS, CFG_FWD_LAT, CFG_MSHRS, CFG_MAX_CYCLES,
    CFG_LEADING, CFG_TRAILING, CFG_PARTIAL, CFG_TCA_UNITS,
    CFG_L1_LAT, CFG_L2_LAT, CFG_MEM_LAT, CFG_PREFETCH,
    CFG_L1_SETS, CFG_L1_ASSOC, CFG_L2_SETS, CFG_L2_ASSOC,
    CFG_LINE_SHIFT, CFG_START, CFG_STOP, CFG_EVENTS_CAP, CFG_READY_CAP,
    CFG_N_FU, CFG_LINE, CFG_WRITERS_CAP, CFG_LOWCONF_CAP
};

/* stats[] slots */
enum {
    ST_CYCLES = 0, ST_INSTR, ST_DISPATCHED, ST_LOADS, ST_STORES,
    ST_BRANCHES, ST_MISPRED, ST_TCA_INV, ST_TCA_READS, ST_TCA_WRITES,
    ST_TCA_WAIT, ST_TCA_EXEC, ST_ROB_SUM, ST_ROB_SAMPLES, ST_MAX_ROB,
    ST_ERR_CYCLE, ST_ERR_COMMITTED, ST_ERR_PC, ST_ERR_ARRAY,
    ST_STALL_BASE = 20
};

/* cstats[] slots */
enum { CS_L1_ACC = 0, CS_L1_MISS, CS_L2_ACC, CS_L2_MISS, CS_PREFETCHES };

#define RC_OK 0
#define RC_CAPACITY (-2)
#define RC_WATCHDOG (-3)
#define RC_DEADLOCK (-4)

/* Scratch arrays a capacity abort names in stats[ST_ERR_ARRAY]. */
enum { CAP_EVENTS = 1, CAP_READY, CAP_WRITERS, CAP_LOWCONF };
#define OVERFLOW(which) do { stats[ST_ERR_ARRAY] = (which); return RC_CAPACITY; } while (0)

enum {
    S_NONE = 0, S_FRONTEND_FILL, S_TCA_BARRIER, S_BRANCH_REDIRECT,
    S_ROB_FULL, S_IQ_FULL, S_LQ_FULL, S_SQ_FULL, S_TRACE_DRAINED
};

#define EV_SHIFT 32
#define SEQ_MASK (((i64)1 << 30) - 1)
#define READY_MASK (((i64)1 << 32) - 1)

static inline i64 heap_push(i64 *heap, i64 n, i64 value) {
    heap[n] = value;
    i64 i = n;
    while (i > 0) {
        i64 parent = (i - 1) >> 1;
        if (heap[parent] <= heap[i])
            break;
        i64 tmp = heap[parent];
        heap[parent] = heap[i];
        heap[i] = tmp;
        i = parent;
    }
    return n + 1;
}

static inline i64 heap_pop(i64 *heap, i64 n) {
    n -= 1;
    i64 last = heap[n];
    if (n == 0)
        return 0;
    heap[0] = last;
    i64 i = 0;
    for (;;) {
        i64 left = 2 * i + 1;
        if (left >= n)
            break;
        i64 small = left;
        i64 right = left + 1;
        if (right < n && heap[right] < heap[left])
            small = right;
        if (heap[small] >= heap[i])
            break;
        i64 tmp = heap[small];
        heap[small] = heap[i];
        heap[i] = tmp;
        i = small;
    }
    return n;
}

/* Python's floor modulo: a negative tag (a warm range below address 0)
 * lands in the same set as on the Python engine. */
static inline i64 set_of(i64 tag, i64 num_sets) {
    i64 set_idx = tag % num_sets;
    return set_idx < 0 ? set_idx + num_sets : set_idx;
}

static inline int level_access(i64 *tags, i64 *cnt, i64 num_sets, i64 assoc,
                               i64 tag) {
    i64 set_idx = set_of(tag, num_sets);
    i64 base = set_idx * assoc;
    i64 count = cnt[set_idx];
    for (i64 j = 0; j < count; j++) {
        if (tags[base + j] == tag) {
            for (i64 m = j; m > 0; m--)
                tags[base + m] = tags[base + m - 1];
            tags[base] = tag;
            return 1;
        }
    }
    i64 new_count = count + 1;
    if (new_count > assoc)
        new_count = assoc;
    for (i64 m = new_count - 1; m > 0; m--)
        tags[base + m] = tags[base + m - 1];
    tags[base] = tag;
    cnt[set_idx] = new_count;
    return 0;
}

static inline int level_contains(const i64 *tags, const i64 *cnt,
                                 i64 num_sets, i64 assoc, i64 tag) {
    i64 set_idx = set_of(tag, num_sets);
    i64 base = set_idx * assoc;
    for (i64 j = 0; j < cnt[set_idx]; j++)
        if (tags[base + j] == tag)
            return 1;
    return 0;
}

/* Bundled cache-hierarchy context so the hot paths stay readable. */
typedef struct {
    i64 *l1_tags, *l1_cnt, *l2_tags, *l2_cnt, *cstats;
    i64 l1_sets, l1_assoc, l2_sets, l2_assoc;
    i64 l1_lat, l2_lat, mem_lat, shift;
} cachectx;

static inline i64 access_line(cachectx *cc, i64 line_addr) {
    i64 tag = line_addr >> cc->shift;
    cc->cstats[CS_L1_ACC] += 1;
    if (level_access(cc->l1_tags, cc->l1_cnt, cc->l1_sets, cc->l1_assoc, tag))
        return cc->l1_lat;
    cc->cstats[CS_L1_MISS] += 1;
    cc->cstats[CS_L2_ACC] += 1;
    if (level_access(cc->l2_tags, cc->l2_cnt, cc->l2_sets, cc->l2_assoc, tag))
        return cc->l1_lat + cc->l2_lat;
    cc->cstats[CS_L2_MISS] += 1;
    return cc->l1_lat + cc->l2_lat + cc->mem_lat;
}

/* CacheHierarchy.warm_lines: run lines[0..n) through L1, and through L2
 * after an L1 miss, counting no stats (no cstats is touched). */
void repro_cache_warm(const i64 *lines, i64 n, i64 shift,
                      i64 *l1_tags, i64 *l1_cnt, i64 l1_sets, i64 l1_assoc,
                      i64 *l2_tags, i64 *l2_cnt, i64 l2_sets, i64 l2_assoc)
{
    for (i64 i = 0; i < n; i++) {
        i64 tag = lines[i] >> shift;
        if (!level_access(l1_tags, l1_cnt, l1_sets, l1_assoc, tag))
            level_access(l2_tags, l2_cnt, l2_sets, l2_assoc, tag);
    }
}

i64 repro_coresim_run(
    const i64 *cfg,
    const i64 *fu_used, const i64 *fu_ports, const i64 *fu_latency,
    const i64 *fu_pipelined, i64 *fu_left, const i64 *busy_start, i64 *fu_busy,
    const i32 *row,
    const u8 *kind, const i64 *fu_cls, const i64 *lat_over,
    const u8 *mispred, const u8 *lowconf_flag,
    const i64 *mem_addr, const i64 *mem_size,
    const i64 *ml_start, const i64 *ml_lines,
    const i64 *cw_start, const i64 *cw_lines,
    const i64 *wr_start, const i64 *wr_addr, const i64 *wr_size,
    const i64 *writer_lo, const i64 *writer_hi,
    const i64 *tr_start, const i64 *tr_addr, const i64 *tr_size,
    const i64 *trl_start, const i64 *trl_lines,
    const i64 *tca_read_count, const i64 *tca_write_count,
    const i64 *tca_comp_lat,
    const i64 *re_start, const i64 *edge_prod, const i64 *edge_cons,
    const i64 *mem_edge_base,
    u8 *completed, u8 *forwarded, i64 *complete_cycle, i64 *deps,
    i64 *first_ready, i64 *tca_read_index, i64 *tca_reads_left,
    i64 *tca_start_cycle, i64 *dep_head, i64 *edge_next,
    i64 *l1_tags, i64 *l1_cnt, i64 *l2_tags, i64 *l2_cnt, i64 *cstats,
    i64 *events, i64 *ready, i64 *deferred, i64 *writers, i64 *lowconf,
    i64 *tca_active, i64 *attached,
    i64 *stats)
{
    const i64 dispatch_width = cfg[CFG_DISPATCH_W];
    const i64 issue_width = cfg[CFG_ISSUE_W];
    const i64 commit_width = cfg[CFG_COMMIT_W];
    const i64 rob_size = cfg[CFG_ROB];
    const i64 iq_size = cfg[CFG_IQ];
    const i64 lq_size = cfg[CFG_LQ];
    const i64 sq_size = cfg[CFG_SQ];
    const i64 frontend_depth = cfg[CFG_FRONTEND];
    const i64 commit_latency = cfg[CFG_COMMIT_LAT];
    const i64 redirect_penalty = cfg[CFG_REDIRECT];
    const i64 load_ports_n = cfg[CFG_LPORTS];
    const i64 store_ports_n = cfg[CFG_SPORTS];
    const i64 forward_latency = cfg[CFG_FWD_LAT];
    const i64 mshr_limit = cfg[CFG_MSHRS];
    const i64 max_cycles = cfg[CFG_MAX_CYCLES];
    const i64 mode_leading = cfg[CFG_LEADING];
    const i64 mode_trailing = cfg[CFG_TRAILING];
    const i64 partial_spec = cfg[CFG_PARTIAL];
    const i64 tca_units = cfg[CFG_TCA_UNITS];
    const i64 l1_lat = cfg[CFG_L1_LAT];
    const i64 prefetch = cfg[CFG_PREFETCH];
    const i64 l1_sets = cfg[CFG_L1_SETS];
    const i64 l1_assoc = cfg[CFG_L1_ASSOC];
    const i64 shift = cfg[CFG_LINE_SHIFT];
    const i64 start = cfg[CFG_START];
    const i64 trace_len = cfg[CFG_STOP];
    const i64 events_cap = cfg[CFG_EVENTS_CAP];
    const i64 ready_cap = cfg[CFG_READY_CAP];
    const i64 n_fu_used = cfg[CFG_N_FU];
    const i64 line = cfg[CFG_LINE];
    const i64 writers_cap = cfg[CFG_WRITERS_CAP];
    const i64 lowconf_cap = cfg[CFG_LOWCONF_CAP];

    cachectx cc = {
        l1_tags, l1_cnt, l2_tags, l2_cnt, cstats,
        l1_sets, l1_assoc, cfg[CFG_L2_SETS], cfg[CFG_L2_ASSOC],
        l1_lat, cfg[CFG_L2_LAT], cfg[CFG_MEM_LAT], shift,
    };

    i64 events_n = 0, ready_n = 0;
    i64 writers_n = 0, writers_start = 0, lowconf_n = 0;
    i64 tca_n = 0, tca_pending = 0;

    i64 pc = start, committed = start;
    i64 barrier = -1, redirect_seq = -1;
    i64 mshr_out = 0, iq_occ = 0, lq_count = 0, sq_count = 0;
    i64 last_stall = S_NONE;

    i64 s_dispatched = 0, s_instructions = 0;
    i64 s_loads = 0, s_stores = 0, s_branches = 0, s_mispredicts = 0;
    i64 s_tca_inv = 0, s_tca_reads = 0, s_tca_writes = 0;
    i64 s_tca_wait = 0, s_tca_exec = 0;
    i64 rob_occ_sum = 0, rob_samples = 0, max_rob = 0;

    i64 cycle = 0;
    while (committed < trace_len) {
        if (cycle > max_cycles) {
            stats[ST_ERR_CYCLE] = cycle;
            stats[ST_ERR_COMMITTED] = committed;
            stats[ST_ERR_PC] = pc;
            return RC_WATCHDOG;
        }
        i64 progress = 0;

        /* ------------------------------------------------ completions */
        i64 ready_key = cycle << EV_SHIFT;
        while (events_n > 0 && (events[0] >> EV_SHIFT) <= cycle) {
            i64 ev = events[0];
            events_n = heap_pop(events, events_n);
            i64 ekind = ev & 3;
            i64 s = (ev >> 2) & SEQ_MASK;
            progress += 1;
            if (ekind == 0) { /* EV_OP */
                completed[s] = 1;
                complete_cycle[s] = cycle;
                i64 e = dep_head[s];
                while (e >= 0) {
                    i64 c = edge_cons[e];
                    i64 d = deps[c] - 1;
                    deps[c] = d;
                    if (d == 0) {
                        first_ready[c] = cycle;
                        if (ready_n >= ready_cap)
                            OVERFLOW(CAP_READY);
                        ready_n = heap_push(ready, ready_n, ready_key | c);
                    }
                    e = edge_next[e];
                }
                dep_head[s] = -1;
                if (kind[row[s]] == 2) { /* TCA */
                    for (i64 i = 0; i < tca_n; i++) {
                        if (tca_active[i] == s) {
                            for (i64 m = i; m < tca_n - 1; m++)
                                tca_active[m] = tca_active[m + 1];
                            tca_n -= 1;
                            break;
                        }
                    }
                    s_tca_exec += cycle - tca_start_cycle[s];
                }
            } else if (ekind == 1) { /* EV_TCA_READ */
                i64 r = tca_reads_left[s] - 1;
                tca_reads_left[s] = r;
                i64 rs = row[s];
                if (r == 0 && tca_read_index[s] >= tca_read_count[rs]) {
                    if (events_n >= events_cap)
                        OVERFLOW(CAP_EVENTS);
                    events_n = heap_push(
                        events, events_n,
                        ((cycle + tca_comp_lat[rs]) << EV_SHIFT) | (s << 2));
                }
            } else { /* EV_MSHR */
                mshr_out -= 1;
            }
        }

        /* ----------------------------------------------------- commit */
        i64 commits = 0;
        while (commits < commit_width && committed < pc) {
            i64 h = committed;
            if (completed[h] == 0 ||
                cycle < complete_cycle[h] + commit_latency)
                break;
            i64 hr = row[h];
            i64 hk = kind[hr];
            if (hk == 0) { /* LOAD */
                lq_count -= 1;
                s_loads += 1;
            } else if (hk == 1) { /* STORE */
                sq_count -= 1;
                for (i64 li = cw_start[hr]; li < cw_start[hr + 1]; li++)
                    access_line(&cc, cw_lines[li]);
                s_stores += 1;
            } else if (hk == 3) { /* BRANCH */
                s_branches += 1;
                if (mispred[hr] != 0)
                    s_mispredicts += 1;
            } else if (hk == 2) { /* TCA */
                if (tca_write_count[hr] > 0) {
                    for (i64 li = cw_start[hr]; li < cw_start[hr + 1]; li++)
                        access_line(&cc, cw_lines[li]);
                    s_tca_writes += tca_write_count[hr];
                }
                s_tca_inv += 1;
            }
            if (barrier == h)
                barrier = -1;
            committed = h + 1;
            s_instructions += 1;
            commits += 1;
        }
        progress += commits;

        /* ------------------------------------------------------ issue */
        i64 issued = 0;
        i64 ready_limit = (cycle + 1) << EV_SHIFT;
        if ((ready_n > 0 && ready[0] < ready_limit) || tca_pending > 0) {
            for (i64 ui = 0; ui < n_fu_used; ui++) {
                i64 cls = fu_used[ui];
                if (fu_pipelined[cls] != 0) {
                    fu_left[cls] = fu_ports[cls];
                } else {
                    i64 n_free = 0;
                    for (i64 bi = busy_start[cls]; bi < busy_start[cls + 1];
                         bi++)
                        if (fu_busy[bi] <= cycle)
                            n_free += 1;
                    fu_left[cls] = n_free;
                }
            }
            i64 issue_left = issue_width;
            i64 lports = load_ports_n;
            i64 sports = store_ports_n;
            i64 deferred_n = 0;
            int tca_reads_allowed = 1;
            while (issue_left > 0) {
                i64 atca = -1;
                if (tca_reads_allowed && tca_n > 0) {
                    for (i64 i = 0; i < tca_n; i++) {
                        i64 t = tca_active[i];
                        if (tca_read_index[t] < tca_read_count[row[t]]) {
                            atca = t;
                            break;
                        }
                    }
                }
                i64 cand = -1;
                if (ready_n > 0 && ready[0] < ready_limit)
                    cand = ready[0] & READY_MASK;
                if (atca >= 0 && (cand < 0 || atca < cand)) {
                    /* Older TCA read competes for a load port first. */
                    int did_read = 0;
                    if (lports > 0) {
                        i64 idx = tca_read_index[atca];
                        i64 g = tr_start[row[atca]] + idx;
                        int blocked = 0;
                        if (mshr_out >= mshr_limit) {
                            for (i64 li = trl_start[g]; li < trl_start[g + 1];
                                 li++) {
                                i64 tag = trl_lines[li] >> shift;
                                if (!level_contains(l1_tags, l1_cnt, l1_sets,
                                                    l1_assoc, tag)) {
                                    blocked = 1;
                                    break;
                                }
                            }
                        }
                        if (!blocked) {
                            i64 worst = 0;
                            int missed = 0;
                            for (i64 li = trl_start[g]; li < trl_start[g + 1];
                                 li++) {
                                i64 la = trl_lines[li];
                                i64 lat = access_line(&cc, la);
                                if (lat > worst)
                                    worst = lat;
                                if (lat > l1_lat)
                                    missed = 1;
                                if (prefetch != 0) {
                                    i64 ntag = (la + line) >> shift;
                                    if (!level_contains(l1_tags, l1_cnt,
                                                        l1_sets, l1_assoc,
                                                        ntag)) {
                                        access_line(&cc, la + line);
                                        cstats[CS_PREFETCHES] += 1;
                                    }
                                }
                            }
                            tca_read_index[atca] = idx + 1;
                            tca_reads_left[atca] += 1;
                            if (idx + 1 == tca_read_count[row[atca]])
                                tca_pending -= 1;
                            i64 ev =
                                ((cycle + worst) << EV_SHIFT) | (atca << 2);
                            if (events_n + 2 > events_cap)
                                OVERFLOW(CAP_EVENTS);
                            events_n = heap_push(events, events_n, ev | 1);
                            if (missed) {
                                mshr_out += 1;
                                events_n = heap_push(events, events_n, ev | 2);
                            }
                            s_tca_reads += 1;
                            did_read = 1;
                        }
                    }
                    if (did_read) {
                        lports -= 1;
                        issue_left -= 1;
                        issued += 1;
                        continue;
                    }
                    tca_reads_allowed = 0;
                    continue;
                }
                if (cand < 0)
                    break;
                ready_n = heap_pop(ready, ready_n);
                i64 k = cand;
                i64 rk = row[k];
                i64 kk = kind[rk];
                if (kk == 2) { /* TCA start */
                    int ok = 1;
                    if (mode_leading == 0) {
                        if (partial_spec != 0) {
                            /* Confidence-gated speculation: start once
                             * every older low-confidence branch has
                             * resolved. */
                            int blocked = 0;
                            if (lowconf_n > 0) {
                                i64 live_n = 0;
                                for (i64 bi = 0; bi < lowconf_n; bi++) {
                                    i64 b = lowconf[bi];
                                    if (completed[b] != 0)
                                        continue;
                                    lowconf[live_n] = b;
                                    live_n += 1;
                                    if (b < k)
                                        blocked = 1;
                                }
                                lowconf_n = live_n;
                            }
                            if (blocked)
                                ok = 0;
                        } else if (committed != k) {
                            /* Non-speculative TCA: ROB drain. */
                            ok = 0;
                        }
                    }
                    if (ok && tca_n >= tca_units)
                        ok = 0;
                    if (ok) {
                        i64 pos = tca_n;
                        for (i64 i = 0; i < tca_n; i++) {
                            if (tca_active[i] > k) {
                                pos = i;
                                break;
                            }
                        }
                        for (i64 m = tca_n; m > pos; m--)
                            tca_active[m] = tca_active[m - 1];
                        tca_active[pos] = k;
                        tca_n += 1;
                        tca_start_cycle[k] = cycle;
                        s_tca_wait += cycle - first_ready[k];
                        iq_occ -= 1;
                        if (tca_read_count[rk] == 0) {
                            if (events_n >= events_cap)
                                OVERFLOW(CAP_EVENTS);
                            events_n = heap_push(
                                events, events_n,
                                ((cycle + tca_comp_lat[rk]) << EV_SHIFT) |
                                    (k << 2));
                        } else {
                            tca_pending += 1;
                        }
                        issued += 1;
                        issue_left -= 1;
                    } else {
                        deferred[deferred_n++] = k;
                    }
                    continue;
                }
                if (kk == 0) { /* LOAD */
                    if (lports <= 0) {
                        deferred[deferred_n++] = k;
                        continue;
                    }
                    i64 lat;
                    if (forwarded[k] != 0) {
                        lat = forward_latency;
                    } else {
                        if (mshr_out >= mshr_limit) {
                            int wm = 0;
                            for (i64 li = ml_start[rk]; li < ml_start[rk + 1];
                                 li++) {
                                i64 tag = ml_lines[li] >> shift;
                                if (!level_contains(l1_tags, l1_cnt, l1_sets,
                                                    l1_assoc, tag)) {
                                    wm = 1;
                                    break;
                                }
                            }
                            if (wm) {
                                deferred[deferred_n++] = k;
                                continue;
                            }
                        }
                        i64 worst = 0;
                        int missed = 0;
                        for (i64 li = ml_start[rk]; li < ml_start[rk + 1];
                             li++) {
                            i64 la = ml_lines[li];
                            i64 alat = access_line(&cc, la);
                            if (alat > worst)
                                worst = alat;
                            if (alat > l1_lat)
                                missed = 1;
                            if (prefetch != 0) {
                                i64 ntag = (la + line) >> shift;
                                if (!level_contains(l1_tags, l1_cnt, l1_sets,
                                                    l1_assoc, ntag)) {
                                    access_line(&cc, la + line);
                                    cstats[CS_PREFETCHES] += 1;
                                }
                            }
                        }
                        lat = worst;
                        if (missed) {
                            mshr_out += 1;
                            if (events_n >= events_cap)
                                OVERFLOW(CAP_EVENTS);
                            events_n = heap_push(
                                events, events_n,
                                ((cycle + lat) << EV_SHIFT) | (k << 2) | 2);
                        }
                    }
                    iq_occ -= 1;
                    if (events_n >= events_cap)
                        OVERFLOW(CAP_EVENTS);
                    events_n = heap_push(
                        events, events_n,
                        ((cycle + lat) << EV_SHIFT) | (k << 2));
                    issued += 1;
                    issue_left -= 1;
                    lports -= 1;
                    continue;
                }
                if (kk == 1) { /* STORE */
                    if (sports <= 0) {
                        deferred[deferred_n++] = k;
                        continue;
                    }
                    iq_occ -= 1;
                    if (events_n >= events_cap)
                        OVERFLOW(CAP_EVENTS);
                    events_n = heap_push(
                        events, events_n,
                        ((cycle + 1) << EV_SHIFT) | (k << 2));
                    issued += 1;
                    issue_left -= 1;
                    sports -= 1;
                    continue;
                }
                /* Functional-unit op. */
                i64 cls = fu_cls[rk];
                if (fu_left[cls] <= 0) {
                    deferred[deferred_n++] = k;
                    continue;
                }
                fu_left[cls] -= 1;
                i64 lat = lat_over[rk];
                if (lat < 0)
                    lat = fu_latency[cls];
                if (fu_pipelined[cls] == 0) {
                    for (i64 bi = busy_start[cls]; bi < busy_start[cls + 1];
                         bi++) {
                        if (fu_busy[bi] <= cycle) {
                            fu_busy[bi] = cycle + lat;
                            break;
                        }
                    }
                }
                iq_occ -= 1;
                if (events_n >= events_cap)
                    OVERFLOW(CAP_EVENTS);
                events_n = heap_push(
                    events, events_n, ((cycle + lat) << EV_SHIFT) | (k << 2));
                issued += 1;
                issue_left -= 1;
            }
            for (i64 di = 0; di < deferred_n; di++) {
                if (ready_n >= ready_cap)
                    OVERFLOW(CAP_READY);
                ready_n = heap_push(ready, ready_n,
                                    ready_limit | deferred[di]);
            }
        }
        progress += issued;

        /* --------------------------------------------------- dispatch */
        i64 dispatched = 0;
        last_stall = S_NONE;
        while (dispatched < dispatch_width) {
            if (pc >= trace_len) {
                if (dispatched == 0)
                    last_stall = S_TRACE_DRAINED;
                break;
            }
            if (cycle < frontend_depth) {
                last_stall = S_FRONTEND_FILL;
                break;
            }
            if (barrier >= 0) {
                last_stall = S_TCA_BARRIER;
                break;
            }
            if (redirect_seq >= 0) {
                if (completed[redirect_seq] != 0 &&
                    cycle >= complete_cycle[redirect_seq] + redirect_penalty) {
                    redirect_seq = -1;
                } else {
                    last_stall = S_BRANCH_REDIRECT;
                    break;
                }
            }
            if (pc - committed >= rob_size) {
                last_stall = S_ROB_FULL;
                break;
            }
            i64 k = pc;
            i64 rk = row[k];
            i64 kk = kind[rk];
            if (iq_occ >= iq_size) {
                last_stall = S_IQ_FULL;
                break;
            }
            if (kk == 0 && lq_count >= lq_size) {
                last_stall = S_LQ_FULL;
                break;
            }
            if (kk == 1 && sq_count >= sq_size) {
                last_stall = S_SQ_FULL;
                break;
            }
            pc = k + 1;
            completed[k] = 0;
            i64 ndeps = 0;
            for (i64 e = re_start[k]; e < re_start[k + 1]; e++) {
                i64 p = edge_prod[e];
                if (completed[p] != 0)
                    continue;
                ndeps += 1;
                edge_next[e] = dep_head[p];
                dep_head[p] = e;
            }
            if (kk == 0) { /* LOAD: disambiguation + forwarding */
                i64 addr = mem_addr[rk];
                i64 end = addr + mem_size[rk];
                while (writers_start < writers_n &&
                       writers[writers_start] < committed)
                    writers_start += 1;
                i64 w = -1;
                for (i64 i = writers_n - 1; i >= writers_start; i--) {
                    i64 ws = writers[i];
                    if (completed[ws] != 0)
                        continue;
                    i64 wrow = row[ws];
                    if (writer_lo[wrow] < end && addr < writer_hi[wrow]) {
                        for (i64 ri = wr_start[wrow]; ri < wr_start[wrow + 1];
                             ri++) {
                            i64 wa = wr_addr[ri];
                            if (wa < end && addr < wa + wr_size[ri]) {
                                w = ws;
                                break;
                            }
                        }
                        if (w >= 0)
                            break;
                    }
                }
                if (w >= 0) {
                    forwarded[k] = 1;
                    int in_rp = 0;
                    for (i64 ri = re_start[k]; ri < re_start[k + 1]; ri++) {
                        if (edge_prod[ri] == w) {
                            in_rp = 1;
                            break;
                        }
                    }
                    if (!in_rp) {
                        ndeps += 1;
                        i64 e = mem_edge_base[k];
                        edge_next[e] = dep_head[w];
                        dep_head[w] = e;
                    }
                } else {
                    forwarded[k] = 0;
                }
                lq_count += 1;
            } else if (kk == 1) { /* STORE */
                sq_count += 1;
                if (writers_n >= writers_cap)
                    OVERFLOW(CAP_WRITERS);
                writers[writers_n++] = k;
            } else if (kk == 2) { /* TCA */
                tca_read_index[k] = 0;
                tca_reads_left[k] = 0;
                if (tr_start[rk + 1] > tr_start[rk]) {
                    while (writers_start < writers_n &&
                           writers[writers_start] < committed)
                        writers_start += 1;
                    i64 mem_e = mem_edge_base[k];
                    i64 n_attached = 0;
                    for (i64 gi = tr_start[rk]; gi < tr_start[rk + 1]; gi++) {
                        i64 ra = tr_addr[gi];
                        i64 rend = ra + tr_size[gi];
                        i64 w = -1;
                        for (i64 i = writers_n - 1; i >= writers_start; i--) {
                            i64 ws = writers[i];
                            if (completed[ws] != 0)
                                continue;
                            i64 wrow = row[ws];
                            if (writer_lo[wrow] < rend && ra < writer_hi[wrow]) {
                                for (i64 ri = wr_start[wrow];
                                     ri < wr_start[wrow + 1]; ri++) {
                                    i64 wa = wr_addr[ri];
                                    if (wa < rend && ra < wa + wr_size[ri]) {
                                        w = ws;
                                        break;
                                    }
                                }
                                if (w >= 0)
                                    break;
                            }
                        }
                        if (w >= 0) {
                            int in_rp = 0;
                            for (i64 ri = re_start[k]; ri < re_start[k + 1];
                                 ri++) {
                                if (edge_prod[ri] == w) {
                                    in_rp = 1;
                                    break;
                                }
                            }
                            if (!in_rp) {
                                for (i64 ai = 0; ai < n_attached; ai++) {
                                    if (attached[ai] == w) {
                                        in_rp = 1;
                                        break;
                                    }
                                }
                            }
                            if (!in_rp) {
                                attached[n_attached] = w;
                                ndeps += 1;
                                i64 e = mem_e + n_attached;
                                n_attached += 1;
                                edge_next[e] = dep_head[w];
                                dep_head[w] = e;
                            }
                        }
                    }
                }
                if (wr_start[rk + 1] > wr_start[rk]) {
                    if (writers_n >= writers_cap)
                        OVERFLOW(CAP_WRITERS);
                    writers[writers_n++] = k;
                }
            }
            if (lowconf_flag[rk] != 0) {
                if (lowconf_n >= lowconf_cap)
                    OVERFLOW(CAP_LOWCONF);
                lowconf[lowconf_n++] = k;
            }
            iq_occ += 1;
            deps[k] = ndeps;
            if (ndeps == 0) {
                first_ready[k] = cycle + 1;
                if (ready_n >= ready_cap)
                    OVERFLOW(CAP_READY);
                ready_n = heap_push(ready, ready_n,
                                    ((cycle + 1) << EV_SHIFT) | k);
            }
            dispatched += 1;
            s_dispatched += 1;
            if (kk == 2 && mode_trailing == 0) {
                /* NT modes: the TCA is a dispatch barrier until commit. */
                barrier = k;
                break;
            }
            if (mispred[rk] != 0) {
                redirect_seq = k;
                break;
            }
        }
        progress += dispatched;

        /* ------------------------------------------------ end of cycle */
        i64 rob_len = pc - committed;
        if (rob_len > max_rob)
            max_rob = rob_len;
        if (dispatched == 0 && last_stall != S_NONE)
            stats[ST_STALL_BASE + last_stall] += 1;
        rob_occ_sum += rob_len;
        rob_samples += 1;

        if (progress > 0) {
            cycle += 1;
            continue;
        }

        /* Fast-forward to the next cycle at which any pipeline event
         * can occur (see CoreSim._run for the sterile-cycle argument). */
        i64 target = -1;
        if (events_n > 0)
            target = events[0] >> EV_SHIFT;
        if (redirect_seq >= 0 && completed[redirect_seq] != 0) {
            i64 t2 = complete_cycle[redirect_seq] + redirect_penalty;
            if (target < 0 || t2 < target)
                target = t2;
        }
        if (committed < pc && completed[committed] != 0) {
            i64 t2 = complete_cycle[committed] + commit_latency;
            if (target < 0 || t2 < target)
                target = t2;
        }
        if (cycle < frontend_depth) {
            if (target < 0 || frontend_depth < target)
                target = frontend_depth;
        }
        if (target < 0) {
            if (ready_n > 0) {
                target = cycle + 1;
            } else {
                stats[ST_ERR_CYCLE] = cycle;
                stats[ST_ERR_COMMITTED] = committed;
                stats[ST_ERR_PC] = pc;
                return RC_DEADLOCK;
            }
        }
        if (target < cycle + 1)
            target = cycle + 1;
        if (target > max_cycles + 1)
            target = max_cycles + 1;
        i64 skipped = target - cycle - 1;
        if (skipped > 0) {
            if (last_stall != S_NONE)
                stats[ST_STALL_BASE + last_stall] += skipped;
            rob_occ_sum += rob_len * skipped;
            rob_samples += skipped;
            if (ready_n > 0) {
                /* Every entry is keyed exactly cycle + 1; the uniform
                 * re-key preserves the heap invariant. */
                i64 target_key = target << EV_SHIFT;
                for (i64 ri = 0; ri < ready_n; ri++)
                    ready[ri] = target_key | (ready[ri] & READY_MASK);
            }
        }
        cycle = target;
    }

    stats[ST_CYCLES] = cycle;
    stats[ST_INSTR] = s_instructions;
    stats[ST_DISPATCHED] = s_dispatched;
    stats[ST_LOADS] = s_loads;
    stats[ST_STORES] = s_stores;
    stats[ST_BRANCHES] = s_branches;
    stats[ST_MISPRED] = s_mispredicts;
    stats[ST_TCA_INV] = s_tca_inv;
    stats[ST_TCA_READS] = s_tca_reads;
    stats[ST_TCA_WRITES] = s_tca_writes;
    stats[ST_TCA_WAIT] = s_tca_wait;
    stats[ST_TCA_EXEC] = s_tca_exec;
    stats[ST_ROB_SUM] = rob_occ_sum;
    stats[ST_ROB_SAMPLES] = rob_samples;
    stats[ST_MAX_ROB] = max_rob;
    return RC_OK;
}
