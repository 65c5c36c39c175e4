// Row-routing autograd ops needed by sparsely-gated mixture-of-experts:
// scatter expert outputs back into the batch and pick each row's gate
// weight. Built on ag::make_node — the autograd extension point.
#pragma once

#include <vector>

#include "tensor/autograd.hpp"

namespace teamnet::moe {

/// out is [n, C] zeros with out[rows[r], :] += src[r, :] (backward gathers).
ag::Var scatter_add_rows(const ag::Var& src, const std::vector<int>& rows,
                         std::int64_t n);

/// out[r, 0] = m[rows[r], cols[r]] for a [n, K] matrix -> [len(rows), 1].
ag::Var gather_elements(const ag::Var& m, const std::vector<int>& rows,
                        const std::vector<int>& cols);

}  // namespace teamnet::moe
