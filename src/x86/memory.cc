#include "x86/memory.hh"

#include <cstring>

namespace cdvm::x86
{

Memory::Page *
Memory::getPageSlow(Addr key)
{
    auto it = pages.find(key);
    if (it == pages.end())
        it = pages.emplace(key, Page(PAGE_SIZE)).first;
    cache.slot(key) = {key, &it->second};
    return &it->second;
}

const Memory::Page *
Memory::findPageSlow(Addr key) const
{
    auto it = pages.find(key);
    if (it == pages.end())
        return nullptr; // never cached: the page may be created later
    // The cache hands out the pages this object owns; a const lookup
    // only ever reads through it (or sets the mutable code bit).
    Page *p = const_cast<Page *>(&it->second);
    cache.slot(key) = {key, p};
    return p;
}

u8
Memory::read8(Addr a) const
{
    const Page *p = findPage(a);
    return p ? p->bytes[a & (PAGE_SIZE - 1)] : 0;
}

u16
Memory::read16(Addr a) const
{
    return static_cast<u16>(read8(a) | (read8(a + 1) << 8));
}

void
Memory::write8(Addr a, u8 v)
{
    Page *p = getPage(a);
    noteWrite(*p);
    p->bytes[a & (PAGE_SIZE - 1)] = v;
    ++written;
}

void
Memory::write16(Addr a, u16 v)
{
    write8(a, static_cast<u8>(v));
    write8(a + 1, static_cast<u8>(v >> 8));
}

void
Memory::writeBlock(Addr a, std::span<const u8> data)
{
    for (std::size_t i = 0; i < data.size();) {
        Page *p = getPage(a + i);
        noteWrite(*p);
        Addr off = (a + i) & (PAGE_SIZE - 1);
        std::size_t chunk = std::min<std::size_t>(PAGE_SIZE - off,
                                                  data.size() - i);
        std::memcpy(p->bytes.data() + off, data.data() + i, chunk);
        written += chunk;
        i += chunk;
    }
}

std::vector<u8>
Memory::readBlock(Addr a, std::size_t len) const
{
    std::vector<u8> out(len, 0);
    fetchWindow(a, out.data(), len);
    return out;
}

void
Memory::fetchWindow(Addr a, u8 *out, std::size_t n) const
{
    for (std::size_t i = 0; i < n;) {
        const Page *p = findPage(a + i);
        Addr off = (a + i) & (PAGE_SIZE - 1);
        std::size_t chunk = std::min<std::size_t>(PAGE_SIZE - off, n - i);
        if (p)
            std::memcpy(out + i, p->bytes.data() + off, chunk);
        else
            std::memset(out + i, 0, chunk);
        i += chunk;
    }
}

bool
Memory::fetchCode(Addr a, u8 *out, std::size_t n) const
{
    bool all_present = true;
    for (std::size_t i = 0; i < n;) {
        const Page *p = findPage(a + i);
        Addr off = (a + i) & (PAGE_SIZE - 1);
        std::size_t chunk = std::min<std::size_t>(PAGE_SIZE - off, n - i);
        if (p) {
            p->code = true;
            std::memcpy(out + i, p->bytes.data() + off, chunk);
        } else {
            // A hole cannot be marked, so a later write creating the
            // page would not bump codeVersion: the caller must not
            // cache a decode that read through it.
            all_present = false;
            std::memset(out + i, 0, chunk);
        }
        i += chunk;
    }
    return all_present;
}

} // namespace cdvm::x86
