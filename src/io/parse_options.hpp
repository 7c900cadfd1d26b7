#pragma once
// ParseOptions — the one knob struct shared by the parallel text parsers
// (parallel_edgelist.hpp, parallel_metis.hpp) and the Graph-returning
// wrappers readEdgeList/readMetis that route through them.

#include "support/common.hpp"

namespace grapr::io {

struct ParseOptions {
    /// Worker threads (and newline-aligned chunks) used for parsing.
    /// 0 = the current OpenMP thread count. The parsed graph is
    /// bit-identical for every thread count (chunk results are stitched
    /// in file order).
    int threads = 0;

    /// Edge list: expect a third column with edge weights.
    /// METIS: ignored (the header's fmt field decides).
    bool weighted = false;

    /// Edge list: treat (u,v) and (v,u) as the same undirected edge and
    /// collapse parallel duplicates, keeping the first instance's weight
    /// (directed inputs list most edges twice).
    bool directedInput = false;

    /// Comment character for edge lists; '%' is always also accepted
    /// (SNAP uses '#', DIMACS/METIS use '%').
    char comment = '#';

    /// Subtract this from every raw edge-list node id (1 for 1-indexed
    /// foreign files). An id below the base is a parse error. METIS ids
    /// are 1-based by definition; this option does not apply there.
    std::uint64_t indexBase = 0;

    /// strict: every malformed token, out-of-range id, or header/content
    /// disagreement throws IoError with the exact line and byte offset.
    /// permissive (false): recoverable problems (malformed lines, junk
    /// tokens, declared-vs-actual count mismatches) are skipped/tolerated
    /// with one summary logWarn; structurally unrecoverable input still
    /// throws IoError.
    bool strict = true;

    /// Edge list without a "grapr edge list: n=" header: remap sparse raw
    /// ids to consecutive ids in first-appearance order (the legacy
    /// reader's behaviour). With remapIds=false, ids are used directly
    /// (after indexBase) and n = max id + 1.
    bool remapIds = true;
};

} // namespace grapr::io
