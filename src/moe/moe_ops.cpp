#include "moe/moe_ops.hpp"

#include <cstring>

#include "common/error.hpp"

namespace teamnet::moe {

ag::Var scatter_add_rows(const ag::Var& src, const std::vector<int>& rows,
                         std::int64_t n) {
  const Tensor& s = src.value();
  TEAMNET_CHECK(s.rank() == 2 &&
                s.dim(0) == static_cast<std::int64_t>(rows.size()));
  const std::int64_t c = s.dim(1);
  Tensor out({n, c});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    TEAMNET_CHECK(rows[r] >= 0 && rows[r] < n);
    const float* sr = s.data() + static_cast<std::int64_t>(r) * c;
    float* o = out.data() + rows[r] * c;
    for (std::int64_t j = 0; j < c; ++j) o[j] += sr[j];
  }
  return ag::make_node(
      std::move(out), {src.node()},
      [rows, c](ag::Node& node) {
        Tensor dsrc({static_cast<std::int64_t>(rows.size()), c});
        for (std::size_t r = 0; r < rows.size(); ++r) {
          std::memcpy(dsrc.data() + static_cast<std::int64_t>(r) * c,
                      node.grad.data() + rows[r] * c,
                      static_cast<std::size_t>(c) * sizeof(float));
        }
        node.parents[0]->accumulate_grad(dsrc);
      },
      "scatter_add_rows");
}

ag::Var gather_elements(const ag::Var& m, const std::vector<int>& rows,
                        const std::vector<int>& cols) {
  const Tensor& v = m.value();
  TEAMNET_CHECK(v.rank() == 2 && rows.size() == cols.size());
  const std::int64_t k = v.dim(1);
  Tensor out({static_cast<std::int64_t>(rows.size()), 1});
  for (std::size_t r = 0; r < rows.size(); ++r) {
    TEAMNET_CHECK(rows[r] >= 0 && rows[r] < v.dim(0) && cols[r] >= 0 &&
                  cols[r] < k);
    out[static_cast<std::int64_t>(r)] = v[rows[r] * k + cols[r]];
  }
  const Shape m_shape = v.shape();
  return ag::make_node(
      std::move(out), {m.node()},
      [rows, cols, m_shape, k](ag::Node& node) {
        Tensor dm(m_shape);
        for (std::size_t r = 0; r < rows.size(); ++r) {
          dm[rows[r] * k + cols[r]] +=
              node.grad[static_cast<std::int64_t>(r)];
        }
        node.parents[0]->accumulate_grad(dm);
      },
      "gather_elements");
}

}  // namespace teamnet::moe
