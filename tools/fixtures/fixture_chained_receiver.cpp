// Fixture for analyze.py --self-test: member calls through a chain of
// receivers.
//
// Recorder::query reserves lanes through `fresh.lanes.reserve(...)`: its
// receiver `lanes` is a std::vector member of the local Timeline, so the
// call is a std container's and binds to no repo method. Before chains
// were followed, the bare name bound it to every repo `reserve`, and
// Pool::reserve's growth showed up as hot. Recorder::grow's
// `holder.arena.reserve(4)` goes through repo members to Arena::reserve,
// and to that one alone; it is that method's call, not a container's, so
// it is no growth site of its own. The same holds for Recorder::reset's
// one-link `arena_.reserve(2)`, while its `scratch_.reserve(2)` on a
// std::vector member is a growth site.

struct Lane {
  int worker = 0;
};

struct Timeline {
  std::vector<Lane> lanes;
};

class Arena {
 public:
  void reserve(int n) { slots_.resize(n); }

 private:
  std::vector<int> slots_;
};

class Pool {
 public:
  void reserve(int n) { blocks_.resize(n); }

 private:
  std::vector<long> blocks_;
};

struct Holder {
  Arena arena;
};

class Recorder {
 public:
  // analyze:hot
  Timeline query(int workers) {
    Timeline fresh;
    fresh.lanes.reserve(workers);
    return fresh;
  }

  // analyze:hot
  void grow(Holder& holder) { holder.arena.reserve(4); }

  // analyze:hot
  void reset() {
    arena_.reserve(2);
    scratch_.reserve(2);
  }

 private:
  Arena arena_;
  std::vector<int> scratch_;
};
