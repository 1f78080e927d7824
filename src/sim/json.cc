#include "json.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "sim/logging.hh"

namespace triarch::json
{

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream os;
                os << "\\u" << std::hex << std::setw(4)
                   << std::setfill('0') << static_cast<int>(c);
                out += os.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
formatDouble(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

// ----------------------------------------------------------------
// Writer.
// ----------------------------------------------------------------

void
Writer::indent()
{
    os << '\n';
    for (std::size_t i = 0; i < stack.size(); ++i)
        os << "  ";
}

void
Writer::beforeElement()
{
    if (stack.empty()) {
        triarch_assert(!rootWritten,
                       "JSON writer: two root values in one document");
        rootWritten = true;
        return;
    }
    Frame &top = stack.back();
    if (top.keyPending) {
        // The separator after the key was already written.
        top.keyPending = false;
        return;
    }
    if (!top.empty)
        os << (top.style == Style::Pretty ? "," : ", ");
    if (top.style == Style::Pretty)
        indent();
    top.empty = false;
}

Writer &
Writer::beginObject(Style style)
{
    // Nested containers of a Compact container stay on its line.
    if (!stack.empty() && stack.back().style == Style::Compact)
        style = Style::Compact;
    beforeElement();
    os << '{';
    stack.push_back({'}', style});
    return *this;
}

Writer &
Writer::beginArray(Style style)
{
    if (!stack.empty() && stack.back().style == Style::Compact)
        style = Style::Compact;
    beforeElement();
    os << '[';
    stack.push_back({']', style});
    return *this;
}

Writer &
Writer::endObject()
{
    triarch_assert(!stack.empty() && stack.back().closer == '}',
                   "JSON writer: endObject with no open object");
    triarch_assert(!stack.back().keyPending,
                   "JSON writer: object closed after a dangling key");
    const Frame top = stack.back();
    stack.pop_back();
    if (top.style == Style::Pretty && !top.empty)
        indent();
    os << '}';
    return *this;
}

Writer &
Writer::endArray()
{
    triarch_assert(!stack.empty() && stack.back().closer == ']',
                   "JSON writer: endArray with no open array");
    const Frame top = stack.back();
    stack.pop_back();
    if (top.style == Style::Pretty && !top.empty)
        indent();
    os << ']';
    return *this;
}

Writer &
Writer::key(const std::string &name)
{
    triarch_assert(!stack.empty() && stack.back().closer == '}',
                   "JSON writer: key() outside an object");
    triarch_assert(!stack.back().keyPending,
                   "JSON writer: two keys in a row");
    beforeElement();
    os << '"' << escape(name) << "\": ";
    stack.back().keyPending = true;
    return *this;
}

Writer &
Writer::value(const std::string &v)
{
    beforeElement();
    os << '"' << escape(v) << '"';
    return *this;
}

Writer &
Writer::value(const char *v)
{
    return value(std::string(v));
}

Writer &
Writer::value(bool v)
{
    beforeElement();
    os << (v ? "true" : "false");
    return *this;
}

Writer &
Writer::value(double v)
{
    beforeElement();
    os << formatDouble(v);
    return *this;
}

Writer &
Writer::valueInt(std::int64_t v)
{
    beforeElement();
    os << v;
    return *this;
}

Writer &
Writer::valueUint(std::uint64_t v)
{
    beforeElement();
    os << v;
    return *this;
}

void
Writer::finish()
{
    triarch_assert(stack.empty(),
                   "JSON writer: document finished with ", stack.size(),
                   " unclosed container(s)");
    triarch_assert(rootWritten, "JSON writer: empty document");
}

// ----------------------------------------------------------------
// Reader.
// ----------------------------------------------------------------

const Value *
Value::field(const std::string &name) const
{
    for (const auto &[key, value] : fields) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

bool
Value::asU64(std::uint64_t &out) const
{
    if (kind != Kind::Number)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return errno == 0 && end && *end == '\0'
           && text.find('-') == std::string::npos;
}

bool
Value::asDouble(double &out) const
{
    if (kind != Kind::Number)
        return false;
    errno = 0;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return errno == 0 && end && *end == '\0' && end != text.c_str();
}

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : in(text) {}

    std::optional<Value>
    parse(std::string *error)
    {
        err = error;
        Value root;
        if (!parseValue(root))
            return std::nullopt;
        skipWs();
        if (pos != in.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return root;
    }

  private:
    void
    fail(const std::string &why)
    {
        if (err && err->empty()) {
            *err = "JSON error at offset " + std::to_string(pos) + ": "
                   + why;
        }
    }

    void
    skipWs()
    {
        while (pos < in.size()
               && std::isspace(static_cast<unsigned char>(in[pos])))
            ++pos;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (in.compare(pos, n, word) != 0) {
            fail(std::string("expected '") + word + "'");
            return false;
        }
        pos += n;
        return true;
    }

    bool
    parseValue(Value &out)
    {
        skipWs();
        if (pos >= in.size()) {
            fail("unexpected end of input");
            return false;
        }
        switch (in[pos]) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out.kind = Value::Kind::String;
            return parseString(out.text);
          case 't':
            out.kind = Value::Kind::Bool;
            out.boolean = true;
            return literal("true");
          case 'f':
            out.kind = Value::Kind::Bool;
            out.boolean = false;
            return literal("false");
          case 'n':
            out.kind = Value::Kind::Null;
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseObject(Value &out)
    {
        out.kind = Value::Kind::Object;
        ++pos;     // '{'
        skipWs();
        if (pos < in.size() && in[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (pos >= in.size() || in[pos] != '"') {
                fail("expected object key");
                return false;
            }
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= in.size() || in[pos] != ':') {
                fail("expected ':' after key");
                return false;
            }
            ++pos;
            Value value;
            if (!parseValue(value))
                return false;
            out.fields.emplace_back(std::move(key), std::move(value));
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == '}') {
                ++pos;
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool
    parseArray(Value &out)
    {
        out.kind = Value::Kind::Array;
        ++pos;     // '['
        skipWs();
        if (pos < in.size() && in[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            Value value;
            if (!parseValue(value))
                return false;
            out.items.push_back(std::move(value));
            skipWs();
            if (pos < in.size() && in[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < in.size() && in[pos] == ']') {
                ++pos;
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos;      // opening quote
        while (pos < in.size() && in[pos] != '"') {
            char c = in[pos];
            if (c == '\\') {
                if (pos + 1 >= in.size()) {
                    fail("dangling escape");
                    return false;
                }
                const char esc = in[pos + 1];
                pos += 2;
                switch (esc) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (pos + 4 > in.size()) {
                        fail("truncated \\u escape");
                        return false;
                    }
                    const unsigned code = static_cast<unsigned>(
                        std::strtoul(in.substr(pos, 4).c_str(),
                                     nullptr, 16));
                    pos += 4;
                    // Only the ASCII subset our writers emit.
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                  }
                  default:
                    fail("unknown escape");
                    return false;
                }
            } else {
                out += c;
                ++pos;
            }
        }
        if (pos >= in.size()) {
            fail("unterminated string");
            return false;
        }
        ++pos;      // closing quote
        return true;
    }

    bool
    parseNumber(Value &out)
    {
        out.kind = Value::Kind::Number;
        const std::size_t start = pos;
        if (pos < in.size() && (in[pos] == '-' || in[pos] == '+'))
            ++pos;
        while (pos < in.size()
               && (std::isdigit(static_cast<unsigned char>(in[pos]))
                   || in[pos] == '.' || in[pos] == 'e' || in[pos] == 'E'
                   || in[pos] == '-' || in[pos] == '+'))
            ++pos;
        if (pos == start) {
            fail("expected a value");
            return false;
        }
        out.text = in.substr(start, pos - start);
        return true;
    }

    const std::string &in;
    std::size_t pos = 0;
    std::string *err = nullptr;
};

} // namespace

std::optional<Value>
parse(const std::string &text, std::string *error)
{
    return Parser(text).parse(error);
}

} // namespace triarch::json
