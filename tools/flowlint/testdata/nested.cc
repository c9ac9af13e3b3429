// Fixture for flowlint's nested-parallel check: a ParallelFor lexically
// inside another ParallelFor's body. The inner region runs inline on
// the outer task's thread, so the nesting is an effect of the outer
// body. The flowlint_flags_nested_parallel CTest case expects exit 2
// with exactly one parallel-body-effects finding, at the inner call.
// Never compiled into any target.

#include <cstddef>
#include <vector>

namespace fixture {

struct ThreadPool;
template <typename B>
void ParallelFor(ThreadPool*, size_t, const B&);

inline void NestedFanOut(ThreadPool* pool, std::vector<double>* grid,
                         size_t rows, size_t cols) {
  ParallelFor(pool, rows, [pool, grid, cols](size_t r) {
    ParallelFor(pool, cols, [grid, cols, r](size_t c) {
      (*grid)[r * cols + c] = 0.0;
    });
  });
}

}  // namespace fixture
