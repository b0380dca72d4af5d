// Areas-of-interest example (Section 6.2): a 3-D RGB animation whose
// viewers overwhelmingly request two sub-volumes — the character's head
// and body across all frames. Tiling by areas of interest guarantees such
// requests read not a byte more than the area itself.
//
//   ./animation_aoi [store-path]

#include <cstdio>

#include "tilestore.h"

using namespace tilestore;

namespace {

void Check(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T Unwrap(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, result.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(result).MoveValue();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/tilestore_animation.db";
  (void)MDDStore::Remove(path);
  auto store = Unwrap(MDDStore::Create(path), "create store");

  // Table 5's object: frames x height x width, 3-byte RGB cells.
  const MInterval domain({{0, 120}, {0, 159}, {0, 119}});
  const MInterval head({{0, 120}, {80, 120}, {25, 60}});
  const MInterval body({{0, 120}, {70, 159}, {25, 105}});

  Array anim = Unwrap(Array::Create(domain, CellType::Of(CellTypeId::kRGB8)),
                      "animation");
  // Paint the character: bright body, brighter head, dark background.
  const RGB8 bg{10, 10, 30}, body_px{180, 140, 100}, head_px{240, 200, 170};
  Check(anim.Fill(domain, &bg), "fill bg");
  Check(anim.Fill(body, &body_px), "fill body");
  Check(anim.Fill(head, &head_px), "fill head");

  MDDObject* object = Unwrap(
      store->CreateMDD("animation", domain, anim.cell_type()), "object");
  AreasOfInterestTiling strategy({head, body}, 256 * 1024);
  Check(object->Load(anim, strategy), "load");
  std::printf("animation %s (%.1f MiB) -> %zu tiles under AOI tiling\n",
              domain.ToString().c_str(),
              anim.size_bytes() / (1024.0 * 1024.0), object->tile_count());

  RangeQueryOptions options;
  options.cold = true;
  RangeQueryExecutor executor(store.get(), options);

  struct Request {
    const char* what;
    MInterval region;
  };
  const Request requests[] = {
      {"head, all frames", head},
      {"body, all frames", body},
      {"head, frames 30-60", MInterval({{30, 60}, {80, 120}, {25, 60}})},
      {"full frame 42", MInterval({{42, 42}, {0, 159}, {0, 119}})},
  };
  std::printf("%-22s %12s %12s %8s\n", "request", "read_KB", "useful_KB",
              "waste");
  for (const Request& request : requests) {
    QueryStats stats;
    Array result =
        Unwrap(executor.Execute(object, request.region, &stats), "query");
    // Sanity: the head pixels really are the head color.
    if (request.region == head) {
      const RGB8 px = result.At<RGB8>(Point({0, 100, 40}));
      if (!(px == head_px)) {
        std::fprintf(stderr, "wrong pixel!\n");
        return 1;
      }
    }
    std::printf("%-22s %12.1f %12.1f %7.1f%%\n", request.what,
                stats.tile_bytes_read / 1024.0, stats.useful_bytes / 1024.0,
                stats.tile_bytes_read == 0
                    ? 0.0
                    : 100.0 * (1.0 - static_cast<double>(stats.useful_bytes) /
                                         static_cast<double>(
                                             stats.tile_bytes_read)));
  }
  std::printf("\nthe two tuned requests have 0%% waste — the paper's "
              "IntersectCode guarantee; untuned requests pay for it.\n");

  store.reset();
  (void)MDDStore::Remove(path);
  return 0;
}
