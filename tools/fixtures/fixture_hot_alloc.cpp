// Fixture for analyze.py --self-test: the hot-path allocation pass.
//
// hot_entry is a marked hot root: its own new-expression and the
// container growth inside hot_helper (reached through the call graph)
// must both be reported, and so must the sized vector that hot_offsets
// declares: a `std::vector<T> v(n)` allocates as surely as a resize().
// hot_view only declares an empty vector and a span-like view, which
// allocate nothing. cold_path allocates too but is unreachable from any
// root and must stay silent.

struct Batch {
  std::vector<int> items_;
  void hot_helper(int v) {
    items_.push_back(v);
  }
};

long hot_offsets(long taps) {
  std::vector<long> rows(static_cast<unsigned long>(taps));
  return rows.empty() ? 0 : taps;
}

int hot_view(const Batch& b) {
  std::vector<int> none;
  const int* first = b.items_.data();
  return static_cast<int>(none.size()) + (first != nullptr ? 1 : 0);
}

// analyze:hot
int* hot_entry(Batch& b) {
  b.hot_helper(1);
  hot_offsets(9);
  hot_view(b);
  return new int[16];
}

void cold_path() {
  int* p = new int[4];
  delete[] p;
}
