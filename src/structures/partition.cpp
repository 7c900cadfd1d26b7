#include "structures/partition.hpp"

#include <algorithm>

#include <omp.h>

namespace grapr {

void Partition::allToSingletons() {
    GRAPR_RACE_PHASE("Partition::allToSingletons");
    const auto n = static_cast<std::int64_t>(data_.size());
#pragma omp parallel for default(none) shared(n) schedule(static)
    for (std::int64_t v = 0; v < n; ++v) {
        GRAPR_RACE_WRITE(shadow_, static_cast<std::size_t>(v));
        data_[static_cast<std::size_t>(v)] = static_cast<node>(v);
    }
    upperId_ = static_cast<node>(data_.size());
}

void Partition::allToOne() {
    std::fill(data_.begin(), data_.end(), 0);
    upperId_ = data_.empty() ? 0 : 1;
}

node Partition::mergeSubsets(node a, node b) {
    if (a == b) return a;
    const node keep = std::min(a, b);
    const node drop = std::max(a, b);
    for (auto& c : data_) {
        if (c == drop) c = keep;
    }
    return keep;
}

std::vector<node> Partition::markUsedIds() const {
    node bound = 0;
    for (const node c : data_) {
        if (c != none) bound = std::max(bound, c + 1);
    }
    std::vector<node> used(bound, 0);
    for (const node c : data_) {
        if (c != none) used[c] = 1;
    }
    return used;
}

count Partition::compact() {
    // Ascending prefix numbering turns the marks into the new ids in place.
    std::vector<node> newId = markUsedIds();
    node next = 0;
    for (node& slot : newId) {
        if (slot != 0) slot = next++;
    }
    for (node& c : data_) {
        if (c != none) c = newId[c];
    }
    upperId_ = next;
    return next;
}

count Partition::numberOfSubsets() const {
    const std::vector<node> used = markUsedIds();
    return static_cast<count>(std::count(used.begin(), used.end(), 1));
}

std::vector<count> Partition::subsetSizes() const {
    std::vector<count> sizes(upperId_, 0);
    for (node c : data_) {
        if (c != none) {
            require(c < upperId_, "subsetSizes: community id >= upperBound");
            ++sizes[c];
        }
    }
    return sizes;
}

std::map<node, std::vector<node>> Partition::subsets() const {
    std::map<node, std::vector<node>> result;
    for (node v = 0; v < data_.size(); ++v) {
        if (data_[v] != none) result[data_[v]].push_back(v);
    }
    return result;
}

bool Partition::isComplete() const {
    return std::none_of(data_.begin(), data_.end(),
                        [](node c) { return c == none; });
}

} // namespace grapr
