// C++ symbolizer fixture: nested namespaces, a virtual method, static functions.
#include <cstdio>

namespace geo {
namespace detail {
static int scale(int x) { return x * 3; }
}  // namespace detail

struct Shape {
    virtual ~Shape() {}
    virtual int area(int side) const { return detail::scale(side); }
};

struct Square : Shape {
    int area(int side) const override { return side * side; }
};

int measure(const Shape &shape, int side) { return shape.area(side) + 1; }
}  // namespace geo

static int twice(int x) { return 2 * x; }

int main(int argc, char **) {
    geo::Square square;
    geo::Shape plain;
    const geo::Shape &pick = argc > 1 ? static_cast<const geo::Shape &>(square) : plain;
    std::printf("%d\n", geo::measure(pick, twice(argc)));
    return 0;
}
