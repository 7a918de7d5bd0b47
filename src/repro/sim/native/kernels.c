/* Native simulation kernel (the "native" engine tier).
 *
 * One loop for every write-back cache the simulator models: a line-for-
 * line transcription of the reference per-reference semantics of
 * SoftwareAssistedCache (repro/core/software_cache.py, _access_assoc)
 * walked by the clock of repro/sim/driver.py.  A plain write-back
 * StandardCache is the same loop with no bounce-back cache, one-line
 * fetches and no prefetch.  The caller (repro.sim.native.runner) owns
 * every array; this file holds no global state, so one loaded library
 * serves any number of concurrent simulations with distinct state.
 *
 * Bit-exactness contract
 * ----------------------
 * Each reference is charged exactly what the reference model's
 * access() returns, and the clock advances exactly as driver.simulate
 * advances it:
 *
 *   now     += gap
 *   cycles   = access(now)              (wait + stall + service)
 *   now     += max(0, cycles - hit_time)
 *
 * so counters, the final model state (main cache, bounce-back buffer
 * order, write-buffer ring, ready_at, bus_free_at, last_fetch) and the
 * per-reference outputs match the reference loop by construction.  The
 * write buffer, including the side effect of its is_full() probe
 * retiring drained entries, replicates repro/sim/write_buffer.py.
 *
 * State layout (all MRU-first per set, `count` live entries each):
 *   main cache   tags/flags[n_sets * ways], count[n_sets]
 *   bounce-back  b_addr/b_arrival/b_flags[bb_sets * bb_ways],
 *                b_count[bb_sets]
 *   last_fetch   lines fetched by the latest access (capacity vl + 1)
 * Line flags are F_DIRTY | F_TEMPORAL (| F_PREFETCHED in the buffer).
 *
 * `params` and `regs` (carried across chunk calls; the counters
 * accumulate there) are int64 arrays in the order of PARAMS and
 * REGISTERS below, which repro/sim/native/runner.py mirrors by name.
 * The loop works on a by-value copy of both, so the compiler keeps
 * them in registers rather than behind pointers the array stores may
 * alias.
 */

#include <stdint.h>

#define INLINE static inline __attribute__((always_inline))

#define PARAMS(X)                                                       \
    X(line_shift) X(n_sets) X(ways) X(vl) X(hit) X(latency) X(transfer) \
    X(assist_hit) X(swap_lock) X(use_bb) X(use_temporal)                \
    X(temporal_priority) X(reset_on_bounce) X(admit_non_temporal)       \
    X(prefetch) X(max_prefetched) X(wb_entries) X(wb_drain) X(bb_sets)  \
    X(bb_ways)

#define REGISTERS(X)                                                    \
    X(clock) X(ready) X(bus) X(wb_len) X(wb_head) X(wb_pushes)          \
    X(wb_stall_cycles) X(pf_count) X(lf_len) X(cycles) X(hits_main)     \
    X(hits_assist) X(misses) X(lines) X(writebacks) X(bounce_backs)     \
    X(bounce_aborts) X(invalidations) X(pf_issued) X(pf_hits)           \
    X(wb_stalls)

#define F_DIRTY 1
#define F_TEMPORAL 2
#define F_PREFETCHED 4

/* Prefetch modes (params.prefetch). */
#define PF_SOFTWARE 1
#define PF_ON_MISS 2

/* Per-reference outcome codes (kind_out). */
#define K_HIT 0
#define K_ASSIST 1
#define K_MISS 2

typedef struct {
    int64_t addr;
    int64_t arrival;
    int32_t flags;
} Entry;

typedef struct {
#define FIELD(name) int64_t name;
    PARAMS(FIELD)
    REGISTERS(FIELD)
#undef FIELD
    int64_t set_mask; /* n_sets - 1 when n_sets is a power of two, else -1 */
    int64_t wb_mask; /* ring capacity - 1: a power of two >= wb_entries */
    int64_t *tags;
    int32_t *flags;
    int64_t *count;
    int64_t *b_addr;
    int64_t *b_arrival;
    int32_t *b_flags;
    int64_t *b_count;
    int64_t *wb_ring;
    int64_t *lf;
} Sim;

INLINE int64_t set_of(const Sim *s, int64_t la) {
    return s->set_mask >= 0 ? (la & s->set_mask) : (la % s->n_sets);
}

/* ---- main cache ---------------------------------------------------- */

INLINE int64_t main_find(const Sim *s, int64_t set, int64_t la) {
    int64_t base = set * s->ways, cnt = s->count[set], k;
    for (k = 0; k < cnt; k++)
        if (s->tags[base + k] == la)
            return k;
    return -1;
}

/* The shifts below carry one entry through the set instead of copying
 * ranges, so compilers do not turn them into memmove calls, which cost
 * more than the one or two entries a set shifts. */

INLINE void main_remove(Sim *s, int64_t set, int64_t pos) {
    int64_t base = set * s->ways, last = s->count[set] - 1, j;
    int64_t tag = s->tags[base + last], t;
    int32_t f = s->flags[base + last], g;
    for (j = last - 1; j >= pos; j--) {
        t = s->tags[base + j], s->tags[base + j] = tag, tag = t;
        g = s->flags[base + j], s->flags[base + j] = f, f = g;
    }
    s->count[set] = last;
}

INLINE void main_push_front(Sim *s, int64_t set, int64_t tag, int32_t f) {
    int64_t base = set * s->ways, cnt = s->count[set], j, t;
    int32_t g;
    for (j = 0; j < cnt; j++) {
        t = s->tags[base + j], s->tags[base + j] = tag, tag = t;
        g = s->flags[base + j], s->flags[base + j] = f, f = g;
    }
    s->tags[base + cnt] = tag;
    s->flags[base + cnt] = f;
    s->count[set] = cnt + 1;
}

/* _victim_index: the way to replace in a full set -- LRU, or LRU among
 * lines without a temporal bit under temporal-priority replacement. */
INLINE int64_t victim_pos(const Sim *s, int64_t set) {
    int64_t base = set * s->ways, k;
    if (s->temporal_priority)
        for (k = s->count[set] - 1; k >= 0; k--)
            if (!(s->flags[base + k] & F_TEMPORAL))
                return k;
    return s->count[set] - 1;
}

/* Remove the victim way of a full set, as a bounce-back entry. */
INLINE Entry main_take_victim(Sim *s, int64_t set) {
    int64_t v = victim_pos(s, set);
    Entry e;
    e.addr = s->tags[set * s->ways + v];
    e.arrival = 0;
    e.flags = s->flags[set * s->ways + v];
    main_remove(s, set, v);
    return e;
}

/* ---- write buffer (repro/sim/write_buffer.py) ----------------------- */

INLINE void wb_advance(Sim *s, int64_t now) {
    while (s->wb_len > 0 && s->wb_ring[s->wb_head] <= now) {
        s->wb_head = (s->wb_head + 1) & s->wb_mask;
        s->wb_len--;
    }
}

INLINE int wb_is_full(Sim *s, int64_t now) {
    if (s->wb_entries == 0)
        return 1;
    wb_advance(s, now);
    return s->wb_len >= s->wb_entries;
}

INLINE int64_t wb_push(Sim *s, int64_t now) {
    int64_t stall = 0, start;
    s->wb_pushes++;
    if (s->wb_entries == 0) {
        s->wb_stall_cycles += s->wb_drain;
        return s->wb_drain;
    }
    wb_advance(s, now);
    if (s->wb_len >= s->wb_entries) {
        /* Full: wait for the oldest entry to drain, freeing one slot. */
        stall = s->wb_ring[s->wb_head] - now;
        s->wb_head = (s->wb_head + 1) & s->wb_mask;
        s->wb_len--;
        now += stall;
        s->wb_stall_cycles += stall;
    }
    start = now;
    if (s->wb_len > 0) {
        int64_t tail = s->wb_ring[(s->wb_head + s->wb_len - 1) & s->wb_mask];
        if (tail > start)
            start = tail;
    }
    s->wb_ring[(s->wb_head + s->wb_len) & s->wb_mask] = start + s->wb_drain;
    s->wb_len++;
    return stall;
}

/* _discard_line: dirty data leaves through the write buffer. */
INLINE int64_t discard(Sim *s, int32_t f, int64_t start) {
    int64_t stall;
    if (!(f & F_DIRTY))
        return 0;
    s->writebacks++;
    stall = wb_push(s, start);
    s->wb_stalls += stall;
    return stall;
}

/* ---- bounce-back buffer (repro/core/bounce_back.py) ---------------- */

INLINE int64_t bb_set(const Sim *s, int64_t la) {
    return s->bb_sets == 1 ? 0 : la % s->bb_sets;
}

INLINE int64_t bb_find(const Sim *s, int64_t la) {
    int64_t bset = bb_set(s, la), base = bset * s->bb_ways;
    int64_t cnt = s->b_count[bset], k;
    for (k = 0; k < cnt; k++)
        if (s->b_addr[base + k] == la)
            return k;
    return -1;
}

INLINE Entry bb_take(Sim *s, int64_t bset, int64_t pos) {
    int64_t base = bset * s->bb_ways, last = s->b_count[bset] - 1, j, t;
    Entry e;
    int32_t g;
    e.addr = s->b_addr[base + last];
    e.arrival = s->b_arrival[base + last];
    e.flags = s->b_flags[base + last];
    for (j = last - 1; j >= pos; j--) {
        t = s->b_addr[base + j], s->b_addr[base + j] = e.addr, e.addr = t;
        t = s->b_arrival[base + j], s->b_arrival[base + j] = e.arrival;
        e.arrival = t;
        g = s->b_flags[base + j], s->b_flags[base + j] = e.flags, e.flags = g;
    }
    s->b_count[bset] = last;
    if (e.flags & F_PREFETCHED)
        s->pf_count--;
    return e;
}

/* Insert at MRU; returns 1 and fills *evicted when the set was full. */
INLINE int bb_insert(Sim *s, Entry e, Entry *evicted) {
    int64_t bset = bb_set(s, e.addr), base = bset * s->bb_ways, cnt, j, t;
    int32_t g;
    int full = s->b_count[bset] >= s->bb_ways;
    if (full)
        *evicted = bb_take(s, bset, s->b_count[bset] - 1);
    if (e.flags & F_PREFETCHED)
        s->pf_count++;
    cnt = s->b_count[bset];
    for (j = 0; j < cnt; j++) {
        t = s->b_addr[base + j], s->b_addr[base + j] = e.addr, e.addr = t;
        t = s->b_arrival[base + j], s->b_arrival[base + j] = e.arrival;
        e.arrival = t;
        g = s->b_flags[base + j], s->b_flags[base + j] = e.flags, e.flags = g;
    }
    s->b_addr[base + j] = e.addr;
    s->b_arrival[base + j] = e.arrival;
    s->b_flags[base + j] = e.flags;
    s->b_count[bset] = cnt + 1;
    return full;
}

/* evict_lru_prefetched: drop the LRU prefetched entry of the hinted
 * set; 0 when that set holds none. */
INLINE int bb_drop_prefetched(Sim *s, int64_t hint) {
    int64_t bset = bb_set(s, hint), base = bset * s->bb_ways, k;
    for (k = s->b_count[bset] - 1; k >= 0; k--) {
        if (s->b_flags[base + k] & F_PREFETCHED) {
            bb_take(s, bset, k);
            return 1;
        }
    }
    return 0;
}

/* ---- bounce-back machinery ----------------------------------------- */

/* _handle_bb_eviction.  `blocked` lists lines whose main-cache sets the
 * ongoing access is filling; a bounce aimed at one of them aborts. */
INLINE int64_t bb_evicted(Sim *s, Entry e, int64_t start,
                          const int64_t *blocked, int64_t n_blocked) {
    int64_t target, k, stall = 0;
    if (!(s->use_temporal && (e.flags & F_TEMPORAL)
          && !(e.flags & F_PREFETCHED)))
        return discard(s, e.flags, start);
    target = set_of(s, e.addr);
    for (k = 0; k < n_blocked; k++) {
        if (set_of(s, blocked[k]) == target) {
            s->bounce_aborts++;
            return discard(s, e.flags, start);
        }
    }
    if (s->count[target] >= s->ways) {
        int64_t v = victim_pos(s, target);
        int32_t occupant = s->flags[target * s->ways + v];
        if ((occupant & F_DIRTY) && wb_is_full(s, start)) {
            /* Write buffer full: abort the transfer (section 2.2). */
            s->bounce_aborts++;
            return discard(s, e.flags, start);
        }
        main_remove(s, target, v);
        stall = discard(s, occupant, start);
    }
    main_push_front(s, target, e.addr,
                    e.flags & (s->reset_on_bounce ? F_DIRTY
                                                  : F_DIRTY | F_TEMPORAL));
    s->bounce_backs++;
    return stall;
}

/* _victim_to_bb: a main-cache victim enters the bounce-back cache. */
INLINE int64_t victim_to_bb(Sim *s, Entry v, int64_t start,
                            const int64_t *blocked, int64_t n_blocked) {
    Entry evicted;
    if (!s->use_bb || (!s->admit_non_temporal && !(v.flags & F_TEMPORAL)))
        return discard(s, v.flags, start);
    if (bb_insert(s, v, &evicted))
        return bb_evicted(s, evicted, start, blocked, n_blocked);
    return 0;
}

/* _issue_prefetch (section 4.4). */
INLINE void issue_prefetch(Sim *s, int64_t la, int64_t issued_at) {
    int64_t begin;
    Entry e, evicted;
    if (main_find(s, set_of(s, la), la) >= 0 || bb_find(s, la) >= 0)
        return;
    begin = issued_at + s->latency;
    if (s->bus > begin)
        begin = s->bus;
    s->bus = begin + s->transfer;
    if (s->pf_count >= s->max_prefetched && !bb_drop_prefetched(s, la))
        return;
    e.addr = la;
    e.arrival = s->bus;
    e.flags = F_PREFETCHED;
    if (bb_insert(s, e, &evicted))
        bb_evicted(s, evicted, e.arrival, 0, 0);
    s->pf_issued++;
    s->lines++;
    s->lf[s->lf_len++] = la;
}

/* ---- one access (SoftwareAssistedCache._access_assoc) -------------- */

INLINE int64_t access(Sim *s, int64_t la, int32_t w, int32_t t,
                      int spatial, int64_t now, int *kind) {
    int64_t wait = s->ready - now, start, set, pos, stall = 0;
    int64_t first_line = la, n_candidates = 1, n_fetch = 0, penalty, c;
    int32_t touched = (w ? F_DIRTY : 0) | (t ? F_TEMPORAL : 0);

    if (wait < 0)
        wait = 0;
    start = now + wait;
    set = set_of(s, la);
    s->lf_len = 0;

    /* main-cache hit */
    pos = main_find(s, set, la);
    if (pos >= 0) {
        int32_t f = s->flags[set * s->ways + pos] | touched;
        main_remove(s, set, pos);
        main_push_front(s, set, la, f);
        s->hits_main++;
        s->ready = start + s->hit;
        *kind = K_HIT;
        return wait + s->hit;
    }

    /* bounce-back-cache hit: swap */
    if (s->use_bb && (pos = bb_find(s, la)) >= 0) {
        Entry found = bb_take(s, bb_set(s, la), pos), evicted;
        int64_t extra = 0;
        s->hits_assist++;
        if (found.flags & F_PREFETCHED) {
            if (found.arrival > start)
                extra = found.arrival - start; /* prefetch in flight */
            if (s->prefetch) {
                s->pf_hits++;
                issue_prefetch(s, la + 1, start + extra);
            }
        }
        if (s->count[set] >= s->ways) {
            /* The main victim takes the freed buffer slot; a bounce
             * aimed at the set being swapped into is blocked. */
            Entry victim = main_take_victim(s, set);
            if (bb_insert(s, victim, &evicted))
                stall = bb_evicted(s, evicted, start, &la, 1);
        }
        main_push_front(s, set, la,
                        (found.flags | touched) & (F_DIRTY | F_TEMPORAL));
        s->ready = start + extra + stall + s->assist_hit + s->swap_lock;
        *kind = K_ASSIST;
        return wait + extra + stall + s->assist_hit;
    }

    /* miss: fetch the line, or the uncached lines of its virtual line */
    s->misses++;
    *kind = K_MISS;
    if (spatial && s->vl > 1) {
        first_line = la - la % s->vl;
        n_candidates = s->vl;
    }
    for (c = 0; c < n_candidates; c++) {
        int64_t line = first_line + c;
        if (line == la || main_find(s, set_of(s, line), line) < 0)
            s->lf[n_fetch++] = line;
    }
    penalty = s->bus - (start + s->latency); /* bus still draining */
    if (penalty < 0)
        penalty = 0;
    penalty += s->latency + n_fetch * s->transfer;
    s->bus = start + penalty;
    s->lines += n_fetch;
    s->lf_len = n_fetch;

    for (c = 0; c < n_fetch; c++) {
        int64_t line = s->lf[c], line_set = set_of(s, line);
        int has_victim = s->count[line_set] >= s->ways;
        Entry victim;
        if (s->use_bb && bb_find(s, line) >= 0) {
            /* The buffer's copy is live: the incoming line's slot is
             * tagged invalid, which costs the would-be victim its
             * place. */
            s->invalidations++;
            if (has_victim) {
                victim = main_take_victim(s, line_set);
                stall += victim_to_bb(s, victim, start, s->lf, n_fetch);
            }
            continue;
        }
        if (has_victim)
            victim = main_take_victim(s, line_set);
        main_push_front(s, line_set, line, line == la ? touched : 0);
        if (has_victim)
            stall += victim_to_bb(s, victim, start, s->lf, n_fetch);
    }

    if (s->prefetch == PF_SOFTWARE && spatial)
        issue_prefetch(s, first_line + n_candidates, start);
    else if (s->prefetch == PF_ON_MISS)
        issue_prefetch(s, la + 1, start);

    s->ready = start + stall + penalty;
    return wait + stall + penalty;
}

/* The driver loop over one chunk (see repro_sim_chunk). */
INLINE void run(Sim *s, int64_t n, const int64_t *addresses,
                const uint8_t *is_write, const uint8_t *temporal,
                const uint8_t *spatial, const int64_t *gaps,
                uint8_t *kind_out, int64_t *cycles_out, int64_t *lines_out,
                int64_t *stalls_out) {
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t lines = s->lines, stalls = s->wb_stalls, cycles;
        int kind;
        s->clock += gaps[i];
        cycles = access(s, addresses[i] >> s->line_shift, is_write[i],
                        temporal[i], spatial[i], s->clock, &kind);
        s->cycles += cycles;
        /* Anything beyond the pipelined hit stalls the issue clock. */
        if (cycles > s->hit)
            s->clock += cycles - s->hit;
        if (kind_out) {
            kind_out[i] = (uint8_t)kind;
            cycles_out[i] = cycles;
            lines_out[i] = s->lines - lines;
            stalls_out[i] = s->wb_stalls - stalls;
        }
    }
}

/* One chunk of the driver loop.  The per-reference outputs (kind_out:
 * K_HIT/K_ASSIST/K_MISS; cycles_out; lines_out: lines fetched,
 * prefetches included; stalls_out: write-buffer stall cycles, those of
 * prefetch-triggered discards included) are filled when non-NULL, for
 * telemetry.  Returns 0. */
int64_t repro_sim_chunk(
    int64_t n,
    const int64_t *addresses,
    const uint8_t *is_write,
    const uint8_t *temporal,
    const uint8_t *spatial,
    const int64_t *gaps,
    const int64_t *params,
    int64_t *tags,
    int32_t *flags,
    int64_t *count,
    int64_t *b_addr,
    int64_t *b_arrival,
    int32_t *b_flags,
    int64_t *b_count,
    int64_t *wb_ring,
    int64_t *last_fetch,
    int64_t *regs,
    uint8_t *kind_out,
    int64_t *cycles_out,
    int64_t *lines_out,
    int64_t *stalls_out) {
    Sim s;
    int64_t k = 0;

#define LOAD_PARAM(name) s.name = params[k++];
    PARAMS(LOAD_PARAM)
#undef LOAD_PARAM
    k = 0;
#define LOAD_REGISTER(name) s.name = regs[k++];
    REGISTERS(LOAD_REGISTER)
#undef LOAD_REGISTER
    s.set_mask = (s.n_sets & (s.n_sets - 1)) == 0 ? s.n_sets - 1 : -1;
    for (s.wb_mask = 1; s.wb_mask < s.wb_entries; s.wb_mask <<= 1)
        ;
    s.wb_mask--;
    s.tags = tags;
    s.flags = flags;
    s.count = count;
    s.b_addr = b_addr;
    s.b_arrival = b_arrival;
    s.b_flags = b_flags;
    s.b_count = b_count;
    s.wb_ring = wb_ring;
    s.lf = last_fetch;

    if (!s.use_bb && s.vl == 1 && !s.prefetch) {
        /* A plain cache: the same loop, compiled a second time with the
         * assist parameters known, so the dead paths drop out. */
        s.use_bb = 0;
        s.vl = 1;
        s.prefetch = 0;
        run(&s, n, addresses, is_write, temporal, spatial, gaps,
            kind_out, cycles_out, lines_out, stalls_out);
    } else {
        run(&s, n, addresses, is_write, temporal, spatial, gaps,
            kind_out, cycles_out, lines_out, stalls_out);
    }

    k = 0;
#define STORE_REGISTER(name) regs[k++] = s.name;
    REGISTERS(STORE_REGISTER)
#undef STORE_REGISTER
    return 0;
}
