/* Native simulation kernel (the "native" engine tier).
 *
 * One loop for every cache model of the simulator's main line and of the
 * related work, each a line-for-line transcription of its reference
 * access() walked by the clock of repro/sim/driver.py:
 *
 *   M_ASSISTED       SoftwareAssistedCache (repro/core/software_cache.py,
 *                    access): bounce-back cache, virtual lines,
 *                    temporal bits, prefetch
 *   M_PLAIN          the same with no bounce-back cache, one-line fetches
 *                    and no prefetch; a write-back StandardCache
 *   M_WRITE_THROUGH  a write-through StandardCache (repro/sim/standard.py),
 *                    with or without write-allocate
 *   M_BYPASS         BypassCache (repro/sim/bypass.py), with or without
 *                    its bypass buffer
 *   M_STREAM         StreamBufferCache (repro/sim/stream_buffer.py)
 *   M_COLUMN         ColumnAssociativeCache (repro/sim/column_assoc.py)
 *   M_SUBBLOCK       SubBlockCache (repro/sim/subblock.py)
 *   M_HP_ASSIST      HPAssistCache (repro/core/assist_hp.py)
 *
 * and, as a runtime step after any of the first three, the functional
 * L2 of TwoLevelCache (repro/sim/hierarchy.py).  The caller
 * (repro.sim.native.runner) owns every array; this file holds no global
 * state, so one loaded library serves any number of concurrent
 * simulations with distinct state.
 *
 * A second entry, repro_belady (at the end of the file), is the offline
 * Belady OPT loop of repro/sim/belady.py.  It shares only the write
 * buffer helpers with run() and is compiled once, outside run()'s
 * per-model copies.
 *
 * Bit-exactness contract
 * ----------------------
 * Each reference is charged exactly what the reference model's
 * access() returns, and the clock advances exactly as driver.simulate
 * advances it:
 *
 *   now     += gap
 *   cycles   = access(now)              (wait + stall + service)
 *   cycles  += memory_extra_latency     (L2: when a replayed line missed)
 *   now     += max(0, cycles - hit_time)
 *
 * so counters, the final model state (main cache, side buffers in
 * their order, write-buffer ring, ready_at, bus_free_at, last_fetch,
 * the L2) and the per-reference outputs match the reference loop by
 * construction.  The write buffer, including the side effect of its
 * is_full() probe retiring drained entries, replicates
 * repro/sim/write_buffer.py.
 *
 * State layout (all MRU-first per set, `count` live entries each):
 *   main cache   tags/flags[n_sets * ways], count[n_sets]; the
 *                column-associative cache is n_sets one-line slots
 *                (count 0 or 1), and a sub-block line keeps its valid
 *                and dirty sector masks in sb_valid/sb_dirty
 *   side buffer  b_addr/b_arrival/b_flags[bb_sets * bb_ways],
 *                b_count[bb_sets]: the bounce-back cache; the bypass
 *                buffer (one fully-associative set); one FIFO per
 *                stream buffer, head first, with st_next/st_last
 *                holding each stream's next line and last use; or the
 *                HP assist FIFO, oldest first
 *   last_fetch   lines fetched by the latest access (capacity vl + 1)
 *   L2           l2_tags[l2_sets * l2_ways], l2_count[l2_sets]
 * Line flags are F_DIRTY | F_TEMPORAL (| F_PREFETCHED in the buffer),
 * F_REHASH on a column-associative line in its rehash slot and
 * F_SPATIAL_ONLY on an assist-FIFO line that must not be promoted.
 *
 * `params` and `regs` (carried across chunk calls; the counters
 * accumulate there) are int64 arrays in the order of PARAMS and
 * REGISTERS below, which repro/sim/native/runner.py mirrors by name.
 * The loop works on a by-value copy of both, so the compiler keeps
 * them in registers rather than behind pointers the array stores may
 * alias.  run() is compiled once per main-line model, each with it
 * known, so a model pays only for its own paths; the related-work
 * models share one further copy that dispatches on the model per
 * reference.  The L2 replay is a runtime step of every copy: it runs
 * only when l2_sets is non-zero, which the caller sets only over a
 * StandardCache or SoftwareAssistedCache L1.
 */

#include <stdint.h>

#define INLINE static inline __attribute__((always_inline))

#define PARAMS(X)                                                       \
    X(model) X(line_shift) X(n_sets) X(ways) X(vl) X(hit) X(latency)    \
    X(transfer) X(words_per_line) X(word_penalty) X(write_allocate)     \
    X(assist_hit) X(swap_lock) X(use_bb) X(use_temporal)                \
    X(temporal_priority) X(reset_on_bounce) X(admit_non_temporal)       \
    X(prefetch) X(max_prefetched) X(wb_entries) X(wb_drain) X(bb_sets)  \
    X(bb_ways) X(l2_sets) X(l2_ways) X(l2_shift) X(l2_extra)            \
    X(sub_shift) X(sub_per_line)

#define REGISTERS(X)                                                    \
    X(clock) X(ready) X(bus) X(wb_len) X(wb_head) X(wb_pushes)          \
    X(wb_stall_cycles) X(pf_count) X(lf_len) X(cycles) X(hits_main)     \
    X(hits_assist) X(misses) X(lines) X(words) X(writebacks)            \
    X(bounce_backs) X(bounce_aborts) X(invalidations) X(pf_issued)      \
    X(pf_hits) X(wb_stalls) X(l2_refs) X(l2_misses)

/* Models (params.model). */
#define M_ASSISTED 0
#define M_PLAIN 1
#define M_WRITE_THROUGH 2
#define M_BYPASS 3
#define M_STREAM 4
#define M_COLUMN 5
#define M_SUBBLOCK 6
#define M_HP_ASSIST 7
/* The copy of run() that dispatches on params.model per reference. */
#define M_RELATED -1

#define F_DIRTY 1
#define F_TEMPORAL 2
#define F_PREFETCHED 4
#define F_REHASH 8
#define F_SPATIAL_ONLY 16

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
    int64_t l2_mask;  /* the same for l2_sets */
    int64_t wb_mask; /* ring capacity - 1: a power of two >= wb_entries */
    int64_t *tags;
    int32_t *flags;
    int64_t *count;
    uint64_t *sb_valid;
    uint64_t *sb_dirty;
    int64_t *b_addr;
    int64_t *b_arrival;
    int32_t *b_flags;
    int64_t *b_count;
    int64_t *st_next;
    int64_t *st_last;
    int64_t *wb_ring;
    int64_t *lf;
    int64_t *l2_tags;
    int64_t *l2_count;
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

/* Put (tag, f) at MRU, shifting ways [0, pos) down one: way pos is
 * overwritten.  A hit moves its own way (pos) to the front, touching
 * only the ways above it. */
INLINE void main_to_front(Sim *s, int64_t set, int64_t pos, int64_t tag,
                          int32_t f) {
    int64_t base = set * s->ways, j, t;
    int32_t g;
    for (j = 0; j < pos; j++) {
        t = s->tags[base + j], s->tags[base + j] = tag, tag = t;
        g = s->flags[base + j], s->flags[base + j] = f, f = g;
    }
    s->tags[base + pos] = tag;
    s->flags[base + pos] = f;
}

INLINE void main_push_front(Sim *s, int64_t set, int64_t tag, int32_t f) {
    main_to_front(s, set, s->count[set], tag, f);
    s->count[set]++;
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
    /* At the cap, a prefetched line of the hinted set makes room; with
     * none there the prefetch is dropped before it takes the bus. */
    if (s->pf_count >= s->max_prefetched && !bb_drop_prefetched(s, la))
        return;
    begin = issued_at + s->latency;
    if (s->bus > begin)
        begin = s->bus;
    s->bus = begin + s->transfer;
    e.addr = la;
    e.arrival = s->bus;
    e.flags = F_PREFETCHED;
    if (bb_insert(s, e, &evicted))
        bb_evicted(s, evicted, e.arrival, 0, 0);
    s->pf_issued++;
    s->lines++;
    s->words += s->words_per_line;
    s->lf[s->lf_len++] = la;
}

/* ---- one access (SoftwareAssistedCache.access) ---------------------- */

/* A plain model (M_PLAIN, M_WRITE_THROUGH) reaches here with use_bb,
 * vl and prefetch pinned to 0, 1 and 0, so the assist paths drop out.
 * Under write-through a store is pushed to the write buffer and the
 * line stays clean (StandardCache.access). */
INLINE int64_t access(Sim *s, const int model, int64_t la, int32_t w,
                      int32_t t, int spatial, int64_t now, int *kind) {
    const int write_through = model == M_WRITE_THROUGH;
    int64_t wait = s->ready - now, start, set, pos, stall = 0;
    int64_t first_line = la, n_candidates = 1, n_fetch = 0, penalty, c;
    int32_t touched = (w && !write_through ? F_DIRTY : 0)
                      | (t ? F_TEMPORAL : 0);

    if (wait < 0)
        wait = 0;
    start = now + wait;
    set = set_of(s, la);
    s->lf_len = 0;

    /* main-cache hit */
    pos = main_find(s, set, la);
    if (pos >= 0) {
        main_to_front(s, set, pos, la,
                      s->flags[set * s->ways + pos] | touched);
        if (write_through && w)
            stall = discard(s, F_DIRTY, start);
        s->hits_main++;
        s->ready = start + stall + s->hit;
        *kind = K_HIT;
        return wait + stall + s->hit;
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
    if (write_through && w && !s->write_allocate) {
        /* No allocation: the store goes straight to the write buffer
         * and the cache is untouched. */
        stall = discard(s, F_DIRTY, start);
        s->ready = start + stall + s->hit;
        return wait + stall + s->hit;
    }
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
    s->words += n_fetch * s->words_per_line;
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
    if (write_through && w)
        /* Allocated clean; the store itself drains through the write
         * buffer. */
        stall += discard(s, F_DIRTY, start);

    if (s->prefetch == PF_SOFTWARE && spatial)
        issue_prefetch(s, first_line + n_candidates, start);
    else if (s->prefetch == PF_ON_MISS)
        issue_prefetch(s, la + 1, start);

    s->ready = start + stall + penalty;
    return wait + stall + penalty;
}

/* ---- the related-work models ---------------------------------------- */

/* A main-cache hit of the models whose lines carry only a dirty bit. */
INLINE int64_t hit_plain(Sim *s, int64_t set, int64_t pos, int64_t la,
                         int32_t w, int64_t wait, int64_t start, int *kind) {
    main_to_front(s, set, pos, la,
                  s->flags[set * s->ways + pos] | (w ? F_DIRTY : 0));
    s->hits_main++;
    s->ready = start + s->hit;
    *kind = K_HIT;
    return wait + s->hit;
}

/* Install a line at MRU; the LRU way of a full set leaves through the
 * write buffer.  Returns the write-buffer stall. */
INLINE int64_t install(Sim *s, int64_t set, int64_t la, int32_t f,
                       int64_t start) {
    int64_t stall = 0;
    if (s->count[set] >= s->ways)
        stall = discard(s, main_take_victim(s, set).flags, start);
    main_push_front(s, set, la, f);
    return stall;
}

/* BypassCache.access: temporal-tagged misses allocate; the rest fetch
 * one line into the bypass buffer (use_bb) or one word. */
INLINE int64_t access_bypass(Sim *s, int64_t la, int32_t w, int32_t t,
                             int64_t now, int *kind) {
    int64_t wait = s->ready - now, start, set, pos, stall = 0;
    int32_t f = w ? F_DIRTY : 0;

    if (wait < 0)
        wait = 0;
    start = now + wait;
    set = set_of(s, la);
    pos = main_find(s, set, la);
    if (pos >= 0)
        return hit_plain(s, set, pos, la, w, wait, start, kind);

    /* The bypass buffer answers as fast as the cache. */
    if (s->use_bb && (pos = bb_find(s, la)) >= 0) {
        Entry e = bb_take(s, 0, pos), evicted;
        e.flags |= f;
        bb_insert(s, e, &evicted);
        s->hits_assist++;
        s->ready = start + s->hit;
        *kind = K_ASSIST;
        return wait + s->hit;
    }

    s->misses++;
    *kind = K_MISS;
    if (t || s->use_bb) {
        /* A line fetch: into the cache for reusable data, into the
         * bypass buffer for the rest. */
        if (t) {
            stall = install(s, set, la, f, start);
        } else {
            Entry e, evicted;
            e.addr = la;
            e.arrival = 0;
            e.flags = f;
            if (bb_insert(s, e, &evicted))
                stall = discard(s, evicted.flags, start);
        }
        s->lines++;
        s->words += s->words_per_line;
        s->ready = start + stall + s->latency + s->transfer;
        return wait + stall + s->latency + s->transfer;
    }

    /* Pure bypassing: fetch just the referenced word, cache nothing. */
    s->words++;
    if (w) {
        stall = discard(s, F_DIRTY, start);
        s->ready = start + stall + s->hit;
        return wait + stall + s->hit;
    }
    s->ready = start + s->word_penalty;
    return wait + s->word_penalty;
}

/* StreamBufferCache._refill: top stream k up to its depth over the
 * shared bus. */
INLINE void refill(Sim *s, int64_t k, int64_t now) {
    int64_t base = k * s->bb_ways, slot, begin;
    while (s->b_count[k] < s->bb_ways) {
        begin = now + s->latency;
        if (s->bus > begin)
            begin = s->bus;
        s->bus = begin + s->transfer;
        slot = base + s->b_count[k]++;
        s->b_addr[slot] = s->st_next[k]++;
        s->b_arrival[slot] = s->bus;
        s->b_flags[slot] = 0;
        s->pf_issued++;
        s->lines++;
        s->words += s->words_per_line;
    }
}

/* StreamBufferCache.access: head-only comparators, one FIFO per
 * stream (bb_sets streams of depth bb_ways). */
INLINE int64_t access_stream(Sim *s, int64_t la, int32_t w, int64_t now,
                             int *kind) {
    int64_t wait = s->ready - now, start, set, pos, stall, penalty, k;
    int64_t victim = 0;
    int32_t f = w ? F_DIRTY : 0;

    if (wait < 0)
        wait = 0;
    start = now + wait;
    set = set_of(s, la);
    pos = main_find(s, set, la);
    if (pos >= 0)
        return hit_plain(s, set, pos, la, w, wait, start, kind);

    for (k = 0; k < s->bb_sets; k++) {
        if (s->b_count[k] > 0 && s->b_addr[k * s->bb_ways] == la) {
            Entry head = bb_take(s, k, 0);
            int64_t extra = head.arrival > start ? head.arrival - start : 0;
            s->st_last[k] = start;
            s->hits_assist++;
            s->pf_hits++;
            stall = install(s, set, la, f, start);
            refill(s, k, start + extra);
            s->ready = start + extra + stall + s->hit;
            *kind = K_ASSIST;
            return wait + extra + stall + s->hit;
        }
    }

    /* Miss: fetch the line and reallocate the least recently used
     * stream (the first on ties, as min() picks) to its successors. */
    s->misses++;
    *kind = K_MISS;
    penalty = s->bus - (start + s->latency);
    if (penalty < 0)
        penalty = 0;
    penalty += s->latency + s->transfer;
    s->bus = start + penalty;
    s->lines++;
    s->words += s->words_per_line;
    stall = install(s, set, la, f, start);
    for (k = 1; k < s->bb_sets; k++)
        if (s->st_last[k] < s->st_last[victim])
            victim = k;
    s->b_count[victim] = 0;
    s->st_next[victim] = la + 1;
    s->st_last[victim] = start;
    refill(s, victim, start);
    s->ready = start + stall + penalty;
    return wait + stall + penalty;
}

/* ColumnAssociativeCache.access: slot `first` is the line's primary
 * slot, `first ^ n_sets / 2` its rehash slot (count 1 when occupied);
 * F_REHASH marks a line living in its rehash slot. */
INLINE int64_t access_column(Sim *s, int64_t la, int32_t w, int64_t now,
                             int *kind) {
    int64_t wait = s->ready - now, start, first, second, stall = 0;
    int64_t penalty = s->latency + s->transfer, probe = 0;
    int32_t f = w ? F_DIRTY : 0;

    if (wait < 0)
        wait = 0;
    start = now + wait;
    first = set_of(s, la);
    second = first ^ (s->n_sets >> 1);

    if (s->count[first] && s->tags[first] == la) {
        /* First-probe hit. */
        s->flags[first] |= f;
        s->hits_main++;
        s->ready = start + s->hit;
        *kind = K_HIT;
        return wait + s->hit;
    }
    if (s->count[second] && s->tags[second] == la
        && !(s->count[first] && (s->flags[first] & F_REHASH))) {
        /* Second-probe hit: swap, so the next access hits first try. */
        int32_t found = (s->flags[second] | f) & ~F_REHASH;
        s->count[second] = s->count[first];
        s->tags[second] = s->tags[first];
        s->flags[second] = s->flags[first] | F_REHASH;
        s->count[first] = 1;
        s->tags[first] = la;
        s->flags[first] = found;
        s->hits_assist++;
        s->ready = start + s->assist_hit + 1;
        *kind = K_ASSIST;
        return wait + s->assist_hit;
    }

    s->misses++;
    s->lines++;
    s->words += s->words_per_line;
    *kind = K_MISS;
    if (s->count[first] && (s->flags[first] & F_REHASH)) {
        /* A rehashed line in the primary slot is the less recently used
         * of the pair: replace it in place, without a second probe. */
        stall = discard(s, s->flags[first], start);
    } else if (s->count[first]) {
        /* Miss in both probes: the primary occupant rehashes into the
         * alternate slot, displacing whatever lived there. */
        if (s->count[second])
            stall = discard(s, s->flags[second], start);
        s->count[second] = 1;
        s->tags[second] = s->tags[first];
        s->flags[second] = s->flags[first] | F_REHASH;
        probe = 1;
    } else {
        probe = 1;
    }
    s->count[first] = 1;
    s->tags[first] = la;
    s->flags[first] = f;
    s->ready = start + stall + penalty;
    return wait + stall + penalty + probe;
}

/* Put a sub-block line at MRU, shifting ways [0, pos) down one (way
 * pos is overwritten), as main_to_front does for tags and flags. */
INLINE void sub_to_front(Sim *s, int64_t set, int64_t pos, int64_t tag,
                         uint64_t valid, uint64_t dirty) {
    int64_t base = set * s->ways, j;
    for (j = pos; j > 0; j--) {
        s->tags[base + j] = s->tags[base + j - 1];
        s->sb_valid[base + j] = s->sb_valid[base + j - 1];
        s->sb_dirty[base + j] = s->sb_dirty[base + j - 1];
    }
    s->tags[base] = tag;
    s->sb_valid[base] = valid;
    s->sb_dirty[base] = dirty;
}

/* SubBlockCache.access: a tag miss evicts the LRU line (its dirty
 * sectors drain as one write-buffer entry) and fetches the referenced
 * sector only; a sub-block miss fetches the sector into its line. */
INLINE int64_t access_subblock(Sim *s, int64_t address, int64_t la,
                               int32_t w, int64_t now, int *kind) {
    int64_t wait = s->ready - now, start, set, pos, stall = 0;
    int64_t penalty = s->latency + s->transfer;
    uint64_t bit = (uint64_t)1
                   << ((address >> s->sub_shift) & (s->sub_per_line - 1));

    if (wait < 0)
        wait = 0;
    start = now + wait;
    set = set_of(s, la);
    pos = main_find(s, set, la);
    if (pos >= 0) {
        int64_t way = set * s->ways + pos;
        uint64_t valid = s->sb_valid[way], dirty = s->sb_dirty[way];
        if (w)
            dirty |= bit;
        if (valid & bit) {
            sub_to_front(s, set, pos, la, valid, dirty);
            s->hits_main++;
            s->ready = start + s->hit;
            *kind = K_HIT;
            return wait + s->hit;
        }
        sub_to_front(s, set, pos, la, valid | bit, dirty);
        s->misses++;
        s->lines++;
        s->words += s->words_per_line;
        s->ready = start + penalty;
        *kind = K_MISS;
        return wait + penalty;
    }

    s->misses++;
    s->lines++;
    s->words += s->words_per_line;
    *kind = K_MISS;
    pos = s->count[set];
    if (pos >= s->ways) {
        pos = s->ways - 1;
        if (s->sb_dirty[set * s->ways + pos])
            stall = discard(s, F_DIRTY, start);
    } else {
        s->count[set]++;
    }
    sub_to_front(s, set, pos, la, bit, w ? bit : 0);
    s->ready = start + stall + penalty;
    return wait + stall + penalty;
}

/* HPAssistCache.access: main cache and assist FIFO (the side buffer's
 * one set, oldest first) are probed in parallel; a miss enters the
 * FIFO, whose oldest line is promoted into the main cache as it ages
 * out, unless it carries the spatial-only hint. */
INLINE int64_t access_hp(Sim *s, int64_t la, int32_t w, int32_t t,
                         int spatial, int64_t now, int *kind) {
    int64_t wait = s->ready - now, start, set, pos, stall = 0, k;
    int64_t penalty = s->latency + s->transfer, slot;

    if (wait < 0)
        wait = 0;
    start = now + wait;
    set = set_of(s, la);
    pos = main_find(s, set, la);
    if (pos >= 0)
        return hit_plain(s, set, pos, la, w, wait, start, kind);

    for (k = 0; k < s->b_count[0]; k++) {
        if (s->b_addr[k] == la) {
            if (w)
                s->b_flags[k] |= F_DIRTY;
            if (t)
                s->b_flags[k] &= ~F_SPATIAL_ONLY; /* a temporal touch */
            s->hits_assist++;
            s->ready = start + s->hit;
            *kind = K_ASSIST;
            return wait + s->hit;
        }
    }

    s->misses++;
    s->lines++;
    s->words += s->words_per_line;
    *kind = K_MISS;
    if (s->b_count[0] >= s->bb_ways) {
        Entry oldest = bb_take(s, 0, 0);
        if (oldest.flags & F_SPATIAL_ONLY) {
            /* Spatial-only data never reaches the main cache. */
            stall = discard(s, oldest.flags, start);
        } else {
            stall = install(s, set_of(s, oldest.addr), oldest.addr,
                            oldest.flags & F_DIRTY, start);
            s->bounce_backs++; /* promotion counter */
        }
    }
    slot = s->b_count[0]++;
    s->b_addr[slot] = la;
    s->b_flags[slot] = (w ? F_DIRTY : 0)
                       | (spatial && !t ? F_SPATIAL_ONLY : 0);
    s->ready = start + stall + penalty;
    return wait + stall + penalty;
}

/* The related-work step of params.model, chosen per reference. */
INLINE int64_t access_related(Sim *s, int64_t address, int64_t la,
                              int32_t w, int32_t t, int spatial,
                              int64_t now, int *kind) {
    switch (s->model) {
    case M_BYPASS:
        return access_bypass(s, la, w, t, now, kind);
    case M_STREAM:
        return access_stream(s, la, w, now, kind);
    case M_COLUMN:
        return access_column(s, la, w, now, kind);
    case M_SUBBLOCK:
        return access_subblock(s, address, la, w, now, kind);
    default:
        return access_hp(s, la, w, t, spatial, now, kind);
    }
}

/* TwoLevelCache.access: replay the L1's fetches, one lookup per distinct
 * L2 line in first-seen order, against the functional LRU L2.  Returns
 * memory_extra_latency when any of them missed (pipelined requests pay
 * it once). */
INLINE int64_t l2_replay(Sim *s) {
    int64_t i, j, k, line, set, base, cnt, missed = 0;
    for (i = 0; i < s->lf_len; i++) {
        line = s->lf[i] >> s->l2_shift;
        for (j = 0; j < i && s->lf[j] >> s->l2_shift != line; j++)
            ;
        if (j < i)
            continue; /* this L2 line was replayed already */
        set = s->l2_mask >= 0 ? (line & s->l2_mask) : (line % s->l2_sets);
        base = set * s->l2_ways;
        cnt = s->l2_count[set];
        s->l2_refs++;
        for (k = 0; k < cnt && s->l2_tags[base + k] != line; k++)
            ;
        if (k == cnt) {
            missed = 1;
            s->l2_misses++;
            if (cnt < s->l2_ways)
                s->l2_count[set] = cnt + 1;
            else
                k = cnt - 1; /* the LRU line leaves */
        }
        for (; k > 0; k--)
            s->l2_tags[base + k] = s->l2_tags[base + k - 1];
        s->l2_tags[base] = line;
    }
    return missed ? s->l2_extra : 0;
}

/* The driver loop over one chunk (see repro_sim_chunk). */
INLINE void run(Sim *s, const int model, int64_t n,
                const int64_t *addresses, const uint8_t *is_write,
                const uint8_t *temporal, const uint8_t *spatial,
                const int64_t *gaps, uint8_t *kind_out, int64_t *cycles_out,
                int64_t *words_out, int64_t *stalls_out) {
    int64_t i;
    for (i = 0; i < n; i++) {
        int64_t words = s->words, stalls = s->wb_stalls, cycles;
        int64_t la = addresses[i] >> s->line_shift;
        int kind;
        s->clock += gaps[i];
        if (model == M_RELATED)
            cycles = access_related(s, addresses[i], la, is_write[i],
                                    temporal[i], spatial[i], s->clock,
                                    &kind);
        else
            cycles = access(s, model, la, is_write[i], temporal[i],
                            spatial[i], s->clock, &kind);
        if (s->l2_sets && s->lf_len > 0)
            cycles += l2_replay(s);
        s->cycles += cycles;
        /* Anything beyond the pipelined hit stalls the issue clock. */
        if (cycles > s->hit)
            s->clock += cycles - s->hit;
        if (kind_out) {
            kind_out[i] = (uint8_t)kind;
            cycles_out[i] = cycles;
            words_out[i] = s->words - words;
            stalls_out[i] = s->wb_stalls - stalls;
        }
    }
}

/* One chunk of the driver loop.  The per-reference outputs (kind_out:
 * K_HIT/K_ASSIST/K_MISS; cycles_out; words_out: words fetched,
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
    uint64_t *sb_valid,
    uint64_t *sb_dirty,
    int64_t *b_addr,
    int64_t *b_arrival,
    int32_t *b_flags,
    int64_t *b_count,
    int64_t *st_next,
    int64_t *st_last,
    int64_t *wb_ring,
    int64_t *last_fetch,
    int64_t *l2_tags,
    int64_t *l2_count,
    int64_t *regs,
    uint8_t *kind_out,
    int64_t *cycles_out,
    int64_t *words_out,
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
    s.l2_mask = (s.l2_sets & (s.l2_sets - 1)) == 0 ? s.l2_sets - 1 : -1;
    for (s.wb_mask = 1; s.wb_mask < s.wb_entries; s.wb_mask <<= 1)
        ;
    s.wb_mask--;
    s.tags = tags;
    s.flags = flags;
    s.count = count;
    s.sb_valid = sb_valid;
    s.sb_dirty = sb_dirty;
    s.b_addr = b_addr;
    s.b_arrival = b_arrival;
    s.b_flags = b_flags;
    s.b_count = b_count;
    s.st_next = st_next;
    s.st_last = st_last;
    s.wb_ring = wb_ring;
    s.lf = last_fetch;
    s.l2_tags = l2_tags;
    s.l2_count = l2_count;

    /* One compiled copy of the loop per main-line model.  The plain
     * models run the assisted access() with the assist parameters
     * known, so the dead paths drop out.  The related-work models
     * share one copy. */
#define RUN(model)                                                  \
    run(&s, model, n, addresses, is_write, temporal, spatial, gaps, \
        kind_out, cycles_out, words_out, stalls_out)
    switch (s.model) {
    case M_PLAIN:
        s.use_bb = 0;
        s.vl = 1;
        s.prefetch = 0;
        RUN(M_PLAIN);
        break;
    case M_WRITE_THROUGH:
        s.use_bb = 0;
        s.vl = 1;
        s.prefetch = 0;
        RUN(M_WRITE_THROUGH);
        break;
    case M_ASSISTED:
        RUN(M_ASSISTED);
        break;
    default:
        RUN(M_RELATED);
    }
#undef RUN

    k = 0;
#define STORE_REGISTER(name) regs[k++] = s.name;
    REGISTERS(STORE_REGISTER)
#undef STORE_REGISTER
    return 0;
}

/* ---- Belady OPT (repro/sim/belady.py) ------------------------------ */

/* simulate_belady's loop over a whole trace, kept out of run() so it is
 * compiled once.  The caller precomputes, per reference, the line as a
 * dense id ordered like the line address (line), its set (set) and the
 * position of the line's next use (next; never-used-again lines carry a
 * sentinel larger than any position).  A set holds `count` lines in
 * way_line/way_next/way_dirty, in no particular order, and slot_of maps
 * a dense id to its way (-1 when not resident).
 *
 * A full set evicts the line used farthest in the future; among lines
 * never used again, the smallest line address -- the order of the
 * reference loop's heap of (-next_use, line).  The clock is the
 * driver's: 1-cycle hits, t_lat + LS/w_b misses, dirty victims through
 * the write buffer.  params: ways, hit, penalty, wb_entries, wb_drain;
 * regs (out): cycles, hits, misses, writebacks, write-buffer stalls.
 * Returns 0. */
int64_t repro_belady(
    int64_t n,
    const int64_t *line,
    const int64_t *set,
    const uint8_t *is_write,
    const int64_t *gaps,
    const int64_t *next,
    const int64_t *params,
    int64_t *slot_of,
    int64_t *way_line,
    int64_t *way_next,
    uint8_t *way_dirty,
    int64_t *count,
    int64_t *wb_ring,
    int64_t *regs) {
    Sim s = {0};
    const int64_t ways = params[0], hit = params[1], penalty = params[2];
    int64_t i, j, clock = 0, hits = 0;

    s.wb_entries = params[3];
    s.wb_drain = params[4];
    for (s.wb_mask = 1; s.wb_mask < s.wb_entries; s.wb_mask <<= 1)
        ;
    s.wb_mask--;
    s.wb_ring = wb_ring;

    for (i = 0; i < n; i++) {
        int64_t base = set[i] * ways, k = slot_of[line[i]];
        int64_t wait, start, cycles, stall = 0;
        clock += gaps[i];
        wait = s.ready - clock;
        if (wait < 0)
            wait = 0;
        start = clock + wait;
        if (k >= 0) {
            hits++;
            way_dirty[base + k] |= is_write[i];
            way_next[base + k] = next[i];
            cycles = wait + hit;
            s.ready = start + hit;
        } else {
            s.misses++;
            if (count[set[i]] < ways) {
                k = count[set[i]]++;
            } else {
                k = 0;
                for (j = 1; j < ways; j++)
                    if (way_next[base + j] > way_next[base + k]
                        || (way_next[base + j] == way_next[base + k]
                            && way_line[base + j] < way_line[base + k]))
                        k = j;
                slot_of[way_line[base + k]] = -1;
                if (way_dirty[base + k])
                    stall = discard(&s, F_DIRTY, start);
            }
            way_line[base + k] = line[i];
            way_next[base + k] = next[i];
            way_dirty[base + k] = is_write[i];
            slot_of[line[i]] = k;
            cycles = wait + stall + penalty;
            s.ready = start + stall + penalty;
        }
        s.cycles += cycles;
        if (cycles > hit)
            clock += cycles - hit;
    }
    regs[0] = s.cycles;
    regs[1] = hits;
    regs[2] = s.misses;
    regs[3] = s.writebacks;
    regs[4] = s.wb_stalls;
    return 0;
}
